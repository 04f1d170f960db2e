// Tests for the network edge: Status wire serde, frame and payload
// codecs, client/server integration (including governance surfaced over
// the wire), protocol-fuzz robustness (malformed / truncated / oversized
// / CRC-corrupted frames, mid-frame disconnects — typed errors or clean
// close, never a crash, hang, or leaked session), the listener both
// servers share (its connection cap and a drain that never hangs on a
// silent client), and WAL-shipping replication with injected shipment
// faults forcing snapshot re-sync.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "data/workload.h"
#include "lang/query.h"
#include "net/client.h"
#include "net/replica.h"
#include "net/server.h"
#include "net/status_server.h"
#include "net/wire.h"
#include "obs/exposition.h"
#include "obs/metric_names.h"
#include "obs/registry.h"
#include "service/query_service.h"
#include "storage/serde.h"
#include "storage/wal.h"
#include "util/random.h"
#include "util/socket.h"
#include "util/status.h"

namespace ccdb {
namespace {

// ---------------------------------------------------------------------
// Status wire serde
// ---------------------------------------------------------------------

struct CodeCase {
  StatusCode code;
  Status status;
};

std::vector<CodeCase> AllErrorCodes() {
  return {
      {StatusCode::kInvalidArgument, Status::InvalidArgument("bad arg")},
      {StatusCode::kNotFound, Status::NotFound("missing")},
      {StatusCode::kAlreadyExists, Status::AlreadyExists("dup")},
      {StatusCode::kOutOfRange, Status::OutOfRange("oob")},
      {StatusCode::kUnsupported, Status::Unsupported("nope")},
      {StatusCode::kParseError, Status::ParseError("syntax")},
      {StatusCode::kIoError, Status::IoError("disk")},
      {StatusCode::kUnavailable, Status::Unavailable("busy")},
      {StatusCode::kInternal, Status::Internal("bug")},
      {StatusCode::kCancelled, Status::Cancelled("stop")},
      {StatusCode::kDeadlineExceeded, Status::DeadlineExceeded("late")},
      {StatusCode::kResourceExhausted, Status::ResourceExhausted("budget")},
      {StatusCode::kFailedPrecondition,
       Status::FailedPrecondition("stale term")},
  };
}

TEST(StatusWire, EveryErrorCodeRoundTrips) {
  for (const CodeCase& c : AllErrorCodes()) {
    const std::string bytes = EncodeStatus(c.status);
    Status decoded = Status::OK();
    ASSERT_TRUE(DecodeStatus(bytes, &decoded).ok())
        << "code " << static_cast<int>(c.code);
    EXPECT_EQ(decoded.code(), c.code);
    EXPECT_EQ(decoded.message(), c.status.message());
    EXPECT_EQ(decoded.retry_after_ms(), 0);
  }
}

TEST(StatusWire, OkRoundTrips) {
  Status decoded = Status::InvalidArgument("overwritten");
  ASSERT_TRUE(DecodeStatus(EncodeStatus(Status::OK()), &decoded).ok());
  EXPECT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.message().empty());
}

TEST(StatusWire, RetryAfterHintRoundTrips) {
  Status shed = Status::Unavailable("shed").WithRetryAfter(137);
  Status decoded = Status::OK();
  ASSERT_TRUE(DecodeStatus(EncodeStatus(shed), &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.retry_after_ms(), 137);
}

TEST(StatusWire, OversizedMessageIsTruncatedNotRejected) {
  const std::string huge(kMaxStatusMessageBytes + 5000, 'x');
  Status decoded = Status::OK();
  ASSERT_TRUE(
      DecodeStatus(EncodeStatus(Status::Internal(huge)), &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
  EXPECT_LE(decoded.message().size(), kMaxStatusMessageBytes);
  EXPECT_NE(decoded.message().find("..."), std::string::npos);
}

TEST(StatusWire, MalformedBytesAreRejected) {
  Status out = Status::OK();
  // Too short for the fixed header.
  EXPECT_FALSE(DecodeStatus("abc", &out).ok());
  // Unknown code.
  std::string bytes = EncodeStatus(Status::Internal("x"));
  bytes[0] = static_cast<char>(0xff);
  EXPECT_FALSE(DecodeStatus(bytes, &out).ok());
  // Trailing garbage.
  EXPECT_FALSE(DecodeStatus(EncodeStatus(Status::Internal("x")) + "z", &out)
                   .ok());
  // OK must carry no message.
  std::string ok_with_msg = EncodeStatus(Status::Internal("msg"));
  for (int i = 0; i < 4; ++i) ok_with_msg[i] = 0;  // code -> kOk
  EXPECT_FALSE(DecodeStatus(ok_with_msg, &out).ok());
}

TEST(StatusWire, NormalizeIsIdentityForLocalStatuses) {
  for (const CodeCase& c : AllErrorCodes()) {
    const Status normalized = NormalizeStatusForWire(c.status);
    EXPECT_EQ(normalized.code(), c.status.code());
    EXPECT_EQ(normalized.message(), c.status.message());
  }
}

// ---------------------------------------------------------------------
// Frame + payload codecs
// ---------------------------------------------------------------------

/// A connected loopback socket pair (server side accepted in-line).
struct SocketPair {
  Listener listener;
  Socket client;
  Socket server;
};

SocketPair MakeSocketPair() {
  SocketPair p;
  auto listener = Listener::Bind(0);
  EXPECT_TRUE(listener.ok());
  p.listener = std::move(*listener);
  auto client = TcpConnect("127.0.0.1", p.listener.port());
  EXPECT_TRUE(client.ok());
  p.client = std::move(*client);
  auto server = p.listener.Accept();
  EXPECT_TRUE(server.ok());
  p.server = std::move(*server);
  return p;
}

TEST(Wire, FrameRoundTrips) {
  SocketPair p = MakeSocketPair();
  const std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 7};
  uint64_t out_bytes = 0;
  ASSERT_TRUE(
      net::WriteFrame(&p.client, net::MsgType::kQuery, payload, &out_bytes)
          .ok());
  EXPECT_EQ(out_bytes, net::kFrameOverhead + payload.size());
  net::Frame frame;
  uint64_t in_bytes = 0;
  ASSERT_TRUE(net::ReadFrame(&p.server, &frame, &in_bytes).ok());
  EXPECT_EQ(in_bytes, out_bytes);
  EXPECT_EQ(frame.type, net::MsgType::kQuery);
  EXPECT_EQ(frame.payload, payload);
}

TEST(Wire, EmptyPayloadFrameRoundTrips) {
  SocketPair p = MakeSocketPair();
  ASSERT_TRUE(net::WriteFrame(&p.client, net::MsgType::kMetrics, {}).ok());
  net::Frame frame;
  ASSERT_TRUE(net::ReadFrame(&p.server, &frame).ok());
  EXPECT_EQ(frame.type, net::MsgType::kMetrics);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(Wire, OversizedWriteIsRejectedLocally) {
  SocketPair p = MakeSocketPair();
  std::vector<uint8_t> huge(net::kMaxFramePayload + 1);
  Status s = net::WriteFrame(&p.client, net::MsgType::kQuery, huge);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Wire, CorruptCrcIsRejected) {
  SocketPair p = MakeSocketPair();
  // A hand-built frame with a wrong CRC.
  const uint8_t wire[] = {2, 0, 0, 0,  // len
                          2,           // type kQuery
                          9, 9,        // payload
                          1, 2, 3, 4};  // bogus crc
  ASSERT_TRUE(p.client.SendAll(wire, sizeof(wire)).ok());
  net::Frame frame;
  Status s = net::ReadFrame(&p.server, &frame);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("CRC"), std::string::npos);
}

TEST(Wire, OversizedLengthPrefixIsRejectedWithoutAllocation) {
  SocketPair p = MakeSocketPair();
  const uint8_t wire[] = {0xff, 0xff, 0xff, 0xff, 2};
  ASSERT_TRUE(p.client.SendAll(wire, sizeof(wire)).ok());
  net::Frame frame;
  EXPECT_EQ(net::ReadFrame(&p.server, &frame).code(),
            StatusCode::kInvalidArgument);
}

TEST(Wire, UnknownTypeIsRejected) {
  SocketPair p = MakeSocketPair();
  // Valid CRC over an unknown type byte.
  std::vector<uint8_t> body = {200};
  const uint32_t crc = Crc32(body.data(), body.size());
  std::vector<uint8_t> wire = {0, 0, 0, 0, 200};
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  ASSERT_TRUE(p.client.SendAll(wire.data(), wire.size()).ok());
  net::Frame frame;
  Status s = net::ReadFrame(&p.server, &frame);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unknown frame type"), std::string::npos);
}

TEST(Wire, CleanEofIsUnavailableTornFrameIsIoError) {
  {
    SocketPair p = MakeSocketPair();
    p.client.Close();
    net::Frame frame;
    EXPECT_EQ(net::ReadFrame(&p.server, &frame).code(),
              StatusCode::kUnavailable);
  }
  {
    SocketPair p = MakeSocketPair();
    const uint8_t partial[] = {40, 0, 0, 0, 2, 1, 2, 3};  // announces 40
    ASSERT_TRUE(p.client.SendAll(partial, sizeof(partial)).ok());
    p.client.Close();
    net::Frame frame;
    EXPECT_EQ(net::ReadFrame(&p.server, &frame).code(), StatusCode::kIoError);
  }
}

Relation BoxRelation(size_t count, uint64_t seed) {
  WorkloadParams params;
  params.data_count = count;
  return BoxesToConstraintRelation(GenerateDataBoxes(seed, params));
}

TEST(Wire, RelationRoundTrips) {
  const Relation boxes = BoxRelation(40, 3);
  Writer w;
  net::PutRelation(&w, boxes);
  Reader r(w.buffer());
  Relation back;
  ASSERT_TRUE(net::GetRelation(&r, &back).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.ToString(), boxes.ToString());
}

TEST(Wire, EveryRelationPrefixFailsCleanly) {
  // Schema, count, and each tuple's length and record: a payload cut
  // anywhere short of its end is a typed error, never a relation.
  const Relation boxes = BoxRelation(6, 4);
  Writer w;
  net::PutRelation(&w, boxes);
  for (size_t len = 0; len < w.size(); ++len) {
    Reader r(w.buffer().data(), len);
    Relation back;
    EXPECT_EQ(net::GetRelation(&r, &back).code(), StatusCode::kIoError)
        << "prefix of " << len << " of " << w.size() << " bytes";
  }
}

TEST(Wire, QueryOptionsRoundTrip) {
  service::QueryOptions opts;
  opts.deadline_us = 1234.5;
  opts.max_tuples = 77;
  opts.max_memory_bytes = 1 << 20;
  opts.allow_partial = true;
  opts.trip_at_check = 9;
  opts.trace_id = 0xabcdef0123456789ull;
  Writer w;
  net::PutQueryOptions(&w, opts);
  Reader r(w.buffer());
  service::QueryOptions back;
  ASSERT_TRUE(net::GetQueryOptions(&r, &back).ok());
  EXPECT_EQ(back.deadline_us, opts.deadline_us);
  EXPECT_EQ(back.max_tuples, opts.max_tuples);
  EXPECT_FALSE(back.max_constraints.has_value());
  EXPECT_EQ(back.max_memory_bytes, opts.max_memory_bytes);
  EXPECT_EQ(back.allow_partial, opts.allow_partial);
  EXPECT_EQ(back.trip_at_check, opts.trip_at_check);
  EXPECT_EQ(back.trace_id, opts.trace_id);

  // Defaults survive too.
  Writer w2;
  net::PutQueryOptions(&w2, {});
  Reader r2(w2.buffer());
  ASSERT_TRUE(net::GetQueryOptions(&r2, &back).ok());
  EXPECT_FALSE(back.deadline_us.has_value());
  EXPECT_FALSE(back.allow_partial.has_value());
  EXPECT_EQ(back.trace_id, uint64_t{0});
}

TEST(Wire, TraceNodeRoundTrips) {
  obs::TraceNode root;
  root.label = "R2 = join R0 and R1";
  root.wall_us = 1234.5;
  root.self_us = 12.25;
  root.tuples_in = 80;
  root.tuples_out = 17;
  // Eleven distinct values: a codec that drops or swaps a counter shows.
  root.counters.conjunctions = 99;
  root.counters.box_prunes = 41;
  root.counters.boxes_built = 23;
  root.counters.fm_eliminations = 7;
  root.counters.box_solves = 11;
  root.counters.redundancy_culls = 13;
  root.counters.index_node_visits = 17;
  root.counters.index_leaf_hits = 19;
  root.counters.pages_read = 3;
  root.counters.pool_hits = 29;
  root.counters.fm_pairings = 31;
  obs::TraceNode child;
  child.label = "R0 = select x >= 100 from Boxes";
  child.wall_us = 600.0;
  child.tuples_out = 40;
  child.counters.index_node_visits = 5;
  root.children.push_back(child);
  root.children.push_back(child);
  root.children[1].label = "R1 = select y >= 100 from Boxes";

  Writer w;
  net::PutTraceNode(&w, root);
  Reader r(w.buffer());
  obs::TraceNode back;
  ASSERT_TRUE(net::GetTraceNode(&r, &back).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.label, root.label);
  EXPECT_EQ(back.wall_us, root.wall_us);
  EXPECT_EQ(back.self_us, root.self_us);
  EXPECT_EQ(back.tuples_in, root.tuples_in);
  EXPECT_EQ(back.tuples_out, root.tuples_out);
  EXPECT_EQ(back.counters.conjunctions, root.counters.conjunctions);
  EXPECT_EQ(back.counters.box_prunes, root.counters.box_prunes);
  EXPECT_EQ(back.counters.boxes_built, root.counters.boxes_built);
  EXPECT_EQ(back.counters.fm_eliminations, root.counters.fm_eliminations);
  EXPECT_EQ(back.counters.box_solves, root.counters.box_solves);
  EXPECT_EQ(back.counters.redundancy_culls, root.counters.redundancy_culls);
  EXPECT_EQ(back.counters.index_node_visits,
            root.counters.index_node_visits);
  EXPECT_EQ(back.counters.index_leaf_hits, root.counters.index_leaf_hits);
  EXPECT_EQ(back.counters.pages_read, root.counters.pages_read);
  EXPECT_EQ(back.counters.pool_hits, root.counters.pool_hits);
  EXPECT_EQ(back.counters.fm_pairings, root.counters.fm_pairings);
  ASSERT_EQ(back.children.size(), size_t{2});
  EXPECT_EQ(back.children[0].label, root.children[0].label);
  EXPECT_EQ(back.children[0].counters.index_node_visits, uint64_t{5});
  EXPECT_EQ(back.children[1].label, root.children[1].label);
  // Rendering and totals survive the wire unchanged.
  EXPECT_EQ(back.ToString(), root.ToString());
  EXPECT_EQ(back.TotalCounters().conjunctions,
            root.TotalCounters().conjunctions);
}

TEST(Wire, TraceNodeBytesArePinned) {
  // One node's FETCH_TRACE bytes: the label (u32 length + bytes), wall
  // and self time as IEEE-754 bits, tuples in and out, the eleven layer
  // counters in table order, and the child count, all little-endian. A
  // change here is a wire change and needs a kProtocolVersion bump.
  obs::TraceNode node;
  node.label = "Scan";
  node.wall_us = 1.5;
  node.self_us = 0.25;
  node.tuples_in = 0x21;
  node.tuples_out = 0x22;
  node.counters.conjunctions = 1;
  node.counters.box_prunes = 2;
  node.counters.boxes_built = 3;
  node.counters.fm_eliminations = 4;
  node.counters.box_solves = 5;
  node.counters.redundancy_culls = 6;
  node.counters.index_node_visits = 7;
  node.counters.index_leaf_hits = 8;
  node.counters.pages_read = 9;
  node.counters.pool_hits = 10;
  node.counters.fm_pairings = 11;
  Writer w;
  net::PutTraceNode(&w, node);
  std::string hex;
  for (uint8_t byte : w.buffer()) {
    hex += "0123456789abcdef"[byte >> 4];
    hex += "0123456789abcdef"[byte & 0xf];
  }
  EXPECT_EQ(hex,
            "040000005363616e"                   // "Scan"
            "000000000000f83f000000000000d03f"   // 1.5, 0.25
            "21000000000000002200000000000000"   // in, out
            "01000000000000000200000000000000"   // conj, pruned
            "03000000000000000400000000000000"   // boxed, fm
            "05000000000000000600000000000000"   // box solves, culls
            "07000000000000000800000000000000"   // idx visits, leaf hits
            "09000000000000000a00000000000000"   // pages read, pool hits
            "0b00000000000000"                   // fm pairs
            "00000000");                         // no children
  // The layout pinned above is protocol version 8's.
  EXPECT_EQ(net::kProtocolVersion, 8u);
}

TEST(Wire, TraceNodeDeeperThanGuardIsRejected) {
  // A pathological chain one past the depth limit must decode to a typed
  // error, not a stack overflow.
  obs::TraceNode chain;
  obs::TraceNode* tip = &chain;
  for (uint32_t d = 0; d < net::kMaxTraceDepth + 1; ++d) {
    tip->children.emplace_back();
    tip = &tip->children.back();
  }
  Writer w;
  net::PutTraceNode(&w, chain);
  Reader r(w.buffer());
  obs::TraceNode back;
  EXPECT_EQ(net::GetTraceNode(&r, &back).code(),
            StatusCode::kInvalidArgument);
}

TEST(Wire, RegistrySnapshotRoundTrips) {
  obs::MetricsRegistry registry;
  registry.GetCounter("queries.completed")->Add(41);
  registry.SetGauge("queue.depth", 6);
  obs::Histogram* hist = registry.GetHistogram("query.latency_us");
  hist->Record(12);
  hist->Record(90000);
  const obs::MetricsRegistry::Snapshot snapshot = registry.TakeSnapshot();

  Writer w;
  net::PutRegistrySnapshot(&w, snapshot);
  Reader r(w.buffer());
  obs::MetricsRegistry::Snapshot back;
  ASSERT_TRUE(net::GetRegistrySnapshot(&r, &back).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.values, snapshot.values);
  EXPECT_EQ(back.gauges, snapshot.gauges);
  ASSERT_EQ(back.histograms.size(), size_t{1});
  EXPECT_EQ(back.histograms[0].name, "query.latency_us");
  EXPECT_EQ(back.histograms[0].count, uint64_t{2});
  EXPECT_EQ(back.histograms[0].sum, uint64_t{90012});
  EXPECT_EQ(back.histograms[0].buckets, snapshot.histograms[0].buckets);
  // The two exposition surfaces agree by construction: rendering the
  // decoded snapshot is byte-identical to rendering the original.
  EXPECT_EQ(obs::RenderPrometheus(back), obs::RenderPrometheus(snapshot));
}

TEST(Wire, RegistrySnapshotWithImplausibleCountIsRejected) {
  Writer w;
  w.PutU32(0xffffff);  // claims ~16M values in a tiny payload
  Reader r(w.buffer());
  obs::MetricsRegistry::Snapshot back;
  EXPECT_FALSE(net::GetRegistrySnapshot(&r, &back).ok());
}

// ---------------------------------------------------------------------
// Client / server integration
// ---------------------------------------------------------------------

/// A leader: durable store + query service + wire server.
class Leader {
 public:
  explicit Leader(net::ShipFaults faults = {},
                  service::ServiceOptions sopts = {}) {
    EXPECT_TRUE(db_.Create("Boxes", BoxRelation(50, 7)).ok());
    auto store = DurableStore::Create(&disk_);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    EXPECT_TRUE(store_->CommitCatalog(db_).ok());
    sopts.disk = &disk_;
    sopts.store = store_.get();
    service_ = std::make_unique<service::QueryService>(&db_, sopts);
    net::ServerOptions nopts;
    nopts.store = store_.get();
    nopts.ship_faults = faults;
    auto server = net::Server::Start(service_.get(), nopts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  uint16_t port() const { return server_->port(); }
  service::QueryService* service() { return service_.get(); }
  net::Server* server() { return server_.get(); }
  DurableStore* store() { return store_.get(); }

  std::unique_ptr<net::Client> Connect() {
    auto client = net::Client::Connect("127.0.0.1", port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// Waits until every server-side session is gone (drained connection
  /// threads close theirs asynchronously).
  void WaitSessionsDrained() {
    for (int i = 0; i < 1000; ++i) {
      if (service_->Metrics().sessions == 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FAIL() << "sessions leaked: " << service_->Metrics().sessions;
  }

 private:
  Database db_;
  PageManager disk_;
  std::unique_ptr<DurableStore> store_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<net::Server> server_;
};

TEST(NetServer, HelloExecuteMatchesLocalExecution) {
  Leader leader;
  auto client = leader.Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_FALSE(client->server_read_only());
  EXPECT_GT(client->session_id(), 0u);

  const std::string script =
      "R0 = select x >= 0, x <= 400 from Boxes\nR1 = project R0 on y";
  auto remote = client->Execute(script);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  const auto local_session = leader.service()->OpenSession();
  auto local = leader.service()->Execute(local_session, script);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(remote->step, local->step);
  EXPECT_EQ(remote->relation.ToString(), local->relation.ToString());
  EXPECT_GT(remote->latency_us, 0);
  EXPECT_TRUE(leader.service()->CloseSession(local_session).ok());
}

TEST(NetServer, FractionsAndCoefficientsMatchRunQuery) {
  Leader leader;
  auto client = leader.Connect();
  ASSERT_NE(client, nullptr);
  Database local;
  ASSERT_TRUE(local.Create("Boxes", BoxRelation(50, 7)).ok());
  for (const char* script : {"R0 = select x <= 1801/2 from Boxes",
                             "R0 = select 2x + y <= 3000 from Boxes",
                             "R0 = select x + 3/2y <= 2500 from Boxes"}) {
    auto want = lang::RunQuery(script, &local);
    ASSERT_TRUE(want.ok()) << script << ": " << want.status().ToString();
    EXPECT_GT(want->size(), 0u) << script;
    auto remote = client->Execute(script);
    ASSERT_TRUE(remote.ok()) << script << ": " << remote.status().ToString();
    EXPECT_EQ(remote->relation.ToString(), want->ToString()) << script;
  }
}

TEST(NetServer, ServiceErrorsCrossTheWireTyped) {
  Leader leader;
  auto client = leader.Connect();
  auto result = client->Execute("R0 = select x >= 0 from NoSuchRelation");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("NoSuchRelation"),
            std::string::npos);
  // The connection survives a service-level error.
  EXPECT_TRUE(client->Execute("R0 = select x >= 0 from Boxes").ok());
}

TEST(NetServer, StepsPersistAcrossCallsAndSessionsAreIsolated) {
  Leader leader;
  auto a = leader.Connect();
  auto b = leader.Connect();
  ASSERT_TRUE(a->Execute("R0 = select x >= 100 from Boxes").ok());
  // a's step is visible to a...
  EXPECT_TRUE(a->Execute("R1 = project R0 on y").ok());
  // ...but not to b (separate server-side session).
  auto other = b->Execute("R1 = project R0 on y");
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kNotFound);
}

TEST(NetServer, SubmitWaitCancelOverTheWire) {
  Leader leader;
  auto client = leader.Connect();
  auto id = client->Submit("R0 = select x >= 0 from Boxes");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto result = client->Wait(*id);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->step, "R0");
  // A second WAIT on the same id is a typed NotFound.
  EXPECT_EQ(client->Wait(*id).status().code(), StatusCode::kNotFound);
  // Cancelling an unknown id is a typed NotFound, not a dropped link.
  EXPECT_EQ(client->Cancel(999999).code(), StatusCode::kNotFound);
  EXPECT_TRUE(client->Execute("R1 = select y >= 0 from Boxes").ok());
}

TEST(NetServer, CancelledSubmissionFailsItsWaitTyped) {
  service::ServiceOptions sopts;
  sopts.start_paused = true;  // keep the query queued so Cancel wins
  Leader leader({}, sopts);
  auto client = leader.Connect();
  auto id = client->Submit("R0 = select x >= 0 from Boxes");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Cancel(*id).ok());
  auto result = client->Wait(*id);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  leader.service()->Resume();
}

TEST(NetServer, GovernanceDeadlineSurfacesOverTheWire) {
  Leader leader;
  auto client = leader.Connect();
  service::QueryOptions opts;
  opts.deadline_us = 0.01;  // expires during queue wait
  auto result = client->Execute("R0 = select x >= 0 from Boxes", opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(NetServer, SheddingCarriesRetryAfterAcrossTheWire) {
  service::ServiceOptions sopts;
  sopts.start_paused = true;
  sopts.num_workers = 1;
  sopts.max_queue_depth = 1;
  Leader leader({}, sopts);
  auto client = leader.Connect();
  auto first = client->Submit("R0 = select x >= 0 from Boxes");
  ASSERT_TRUE(first.ok());
  auto second = client->Submit("R0 = select x >= 1 from Boxes");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(second.status().retry_after_ms(), 0)
      << "shed status lost its backoff hint on the wire: "
      << second.status().ToString();
  leader.service()->Resume();
  EXPECT_TRUE(client->Wait(*first).ok());
}

TEST(NetServer, MetricsTraceListGetLoadCheckpoint) {
  Leader leader;
  auto client = leader.Connect();

  auto metrics = client->MetricsText();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("net.connections.open"), std::string::npos);
  EXPECT_NE(metrics->find("queries:"), std::string::npos);

  auto trace = client->FetchTrace("R0 = select x >= 0, x <= 900 from Boxes");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_FALSE(trace->plan_text.empty());
  EXPECT_EQ(trace->root.label.rfind("Select", 0), 0u) << trace->root.label;
  EXPECT_EQ(trace->response.step, "R0");

  auto names = client->ListRelations();
  ASSERT_TRUE(names.ok());
  EXPECT_NE(std::find(names->begin(), names->end(), "Boxes"), names->end());

  auto fetched = client->GetRelation("Boxes");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->size(), 50u);

  const Relation more = BoxRelation(10, 99);
  ASSERT_TRUE(client->LoadRelation("More", more).ok());
  auto more_back = client->GetRelation("More");
  ASSERT_TRUE(more_back.ok());
  EXPECT_EQ(more_back->ToString(), more.ToString());

  EXPECT_TRUE(client->Checkpoint().ok());
  EXPECT_EQ(client->GetRelation("Nope").status().code(),
            StatusCode::kNotFound);
}

TEST(NetServer, DisconnectReclaimsSessionsAndPendingQueries) {
  Leader leader;
  {
    auto client = leader.Connect();
    ASSERT_TRUE(client->Execute("R0 = select x >= 0 from Boxes").ok());
    EXPECT_GE(leader.service()->Metrics().sessions, 1u);
  }  // destructor closes the socket
  leader.WaitSessionsDrained();
}

TEST(NetServer, GracefulDrainUnblocksAndRefuses) {
  Leader leader;
  auto client = leader.Connect();
  ASSERT_TRUE(client->Execute("R0 = select x >= 0 from Boxes").ok());
  leader.server()->Shutdown();
  // The drained server closed the connection under the client.
  EXPECT_FALSE(client->Execute("R1 = select y >= 0 from Boxes").ok());
  // And nobody new can connect.
  EXPECT_FALSE(net::Client::Connect("127.0.0.1", leader.port()).ok());
  EXPECT_EQ(leader.server()->open_connections(), 0u);
  leader.WaitSessionsDrained();
}

TEST(NetServer, ConnectionCapRefusesTypedAndReadmitsAfterAClose) {
  Database db;
  ASSERT_TRUE(db.Create("Boxes", BoxRelation(50, 7)).ok());
  service::QueryService service(&db);
  net::ServerOptions options;
  options.max_connections = 2;
  auto started = net::Server::Start(&service, options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  net::Server* server = started->get();
  auto connect = [server] {
    return net::Client::Connect("127.0.0.1", server->port());
  };
  auto first = connect();
  auto second = connect();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(server->open_connections(), 2u);

  // A third connection is over the cap: typed refusal, not counted.
  auto refused = connect();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server->open_connections(), 2u);
  EXPECT_EQ(server->MergedSnapshot().Value(obs::names::kNetConnectionsTotal),
            2u);

  // Once one client leaves, a new one is admitted and served.
  first->reset();
  for (int i = 0; i < 1000 && server->open_connections() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server->open_connections(), 1u);
  auto admitted = connect();
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_TRUE((*admitted)->Execute("R0 = select x >= 0 from Boxes").ok());
}

// ---------------------------------------------------------------------
// Protocol fuzz: the server must answer garbage with typed errors or a
// clean close — never crash, hang, or leak a session.
// ---------------------------------------------------------------------

Socket RawConnect(uint16_t port) {
  auto sock = TcpConnect("127.0.0.1", port);
  EXPECT_TRUE(sock.ok());
  return std::move(*sock);
}

/// Reads one frame expecting a typed kError carrying `code`.
void ExpectErrorFrame(Socket* sock, StatusCode code) {
  net::Frame frame;
  ASSERT_TRUE(net::ReadFrame(sock, &frame).ok());
  ASSERT_EQ(frame.type, net::MsgType::kError);
  Status transported = Status::OK();
  ASSERT_TRUE(net::DecodeErrorPayload(frame.payload, &transported).ok());
  EXPECT_EQ(transported.code(), code);
}

/// After the server closes, reads must hit EOF (not hang).
void ExpectPeerClose(Socket* sock) {
  uint8_t byte = 0;
  Status s = sock->RecvAll(&byte, 1);
  EXPECT_FALSE(s.ok());
}

TEST(NetFuzz, CorruptCrcGetsTypedErrorThenClose) {
  Leader leader;
  Socket sock = RawConnect(leader.port());
  const uint8_t wire[] = {2, 0, 0, 0, 2, 9, 9, 1, 2, 3, 4};
  ASSERT_TRUE(sock.SendAll(wire, sizeof(wire)).ok());
  ExpectErrorFrame(&sock, StatusCode::kInvalidArgument);
  ExpectPeerClose(&sock);
  // The server is still alive for the next client.
  auto client = leader.Connect();
  EXPECT_TRUE(client->Execute("R0 = select x >= 0 from Boxes").ok());
  client.reset();
  leader.WaitSessionsDrained();
  EXPECT_GE(leader.server()->registry().TakeSnapshot().Value(
                "net.protocol_errors"),
            1u);
}

TEST(NetFuzz, OversizedLengthGetsTypedErrorThenClose) {
  Leader leader;
  Socket sock = RawConnect(leader.port());
  const uint8_t wire[] = {0xff, 0xff, 0xff, 0x7f, 1};
  ASSERT_TRUE(sock.SendAll(wire, sizeof(wire)).ok());
  ExpectErrorFrame(&sock, StatusCode::kInvalidArgument);
  ExpectPeerClose(&sock);
  leader.WaitSessionsDrained();
}

TEST(NetFuzz, MidFrameDisconnectIsHarmless) {
  Leader leader;
  {
    Socket sock = RawConnect(leader.port());
    const uint8_t partial[] = {64, 0, 0, 0, 2, 1, 2};
    ASSERT_TRUE(sock.SendAll(partial, sizeof(partial)).ok());
  }  // close mid-frame
  auto client = leader.Connect();
  EXPECT_TRUE(client->Execute("R0 = select x >= 0 from Boxes").ok());
  client.reset();
  leader.WaitSessionsDrained();
}

TEST(NetFuzz, RequestBeforeHelloIsTypedAndRecoverable) {
  Leader leader;
  Socket sock = RawConnect(leader.port());
  Writer w;
  w.PutU64(1);
  ASSERT_TRUE(net::WriteFrame(&sock, net::MsgType::kWait, w.buffer()).ok());
  ExpectErrorFrame(&sock, StatusCode::kInvalidArgument);
  // Same connection can still HELLO afterwards.
  Writer hello;
  hello.PutU32(net::kProtocolVersion);
  hello.PutString("late-hello");
  ASSERT_TRUE(
      net::WriteFrame(&sock, net::MsgType::kHello, hello.buffer()).ok());
  net::Frame frame;
  ASSERT_TRUE(net::ReadFrame(&sock, &frame).ok());
  EXPECT_EQ(frame.type, net::MsgType::kHelloOk);
  sock.Close();
  leader.WaitSessionsDrained();
}

TEST(NetFuzz, VersionMismatchIsTypedUnsupported) {
  Leader leader;
  Socket sock = RawConnect(leader.port());
  Writer hello;
  hello.PutU32(net::kProtocolVersion + 7);
  hello.PutString("from-the-future");
  ASSERT_TRUE(
      net::WriteFrame(&sock, net::MsgType::kHello, hello.buffer()).ok());
  ExpectErrorFrame(&sock, StatusCode::kUnsupported);
  ExpectPeerClose(&sock);
  leader.WaitSessionsDrained();
}

TEST(NetFuzz, ResponseTypeAsRequestIsTypedError) {
  Leader leader;
  Socket sock = RawConnect(leader.port());
  ASSERT_TRUE(net::WriteFrame(&sock, net::MsgType::kOk, {}).ok());
  ExpectErrorFrame(&sock, StatusCode::kInvalidArgument);
  ExpectPeerClose(&sock);
  leader.WaitSessionsDrained();
}

TEST(NetFuzz, MalformedPayloadOfKnownTypeIsTypedError) {
  Leader leader;
  auto client = leader.Connect();
  // Ride the established session: a QUERY frame whose payload is not a
  // valid (script, options) encoding, sent raw through a second client's
  // socket — easiest is a raw connection that HELLOs first.
  Socket sock = RawConnect(leader.port());
  Writer hello;
  hello.PutU32(net::kProtocolVersion);
  hello.PutString("fuzzer");
  ASSERT_TRUE(
      net::WriteFrame(&sock, net::MsgType::kHello, hello.buffer()).ok());
  net::Frame frame;
  ASSERT_TRUE(net::ReadFrame(&sock, &frame).ok());
  ASSERT_EQ(frame.type, net::MsgType::kHelloOk);
  ASSERT_TRUE(
      net::WriteFrame(&sock, net::MsgType::kQuery, {0xde, 0xad}).ok());
  ExpectErrorFrame(&sock, StatusCode::kInvalidArgument);
  // Connection survives a payload-level error (the stream is aligned).
  ASSERT_TRUE(net::WriteFrame(&sock, net::MsgType::kListRelations, {}).ok());
  ASSERT_TRUE(net::ReadFrame(&sock, &frame).ok());
  EXPECT_EQ(frame.type, net::MsgType::kNameList);
  sock.Close();
  client.reset();
  leader.WaitSessionsDrained();
}

TEST(NetFuzz, LoadOfAStoreWithAnImpliedBoundIsInvalidArgument) {
  // A LOAD_RELATION whose one tuple holds x - 7 <= 0 and x - 5 <= 0: in
  // store order, but the second bound implies the first, so the decoder
  // refuses it and the server reports a malformed payload.
  Relation rel(Schema::Make({Schema::ConstraintRational("x")}).value());
  Tuple t;
  t.AddConstraint(Constraint::Ge(LinearExpr::Variable("x"),
                                 LinearExpr::Constant(Rational(0))));
  t.AddConstraint(Constraint::Le(LinearExpr::Variable("x"),
                                 LinearExpr::Constant(Rational(5))));
  ASSERT_TRUE(rel.Insert(std::move(t)).ok());
  Writer load;
  load.PutString("Implied");
  net::PutRelation(&load, rel);
  std::vector<uint8_t> payload = load.TakeBuffer();
  // -x <= 0 is op 1, one term "x", coefficient -1 (02), constant 0 (00);
  // rewrite it as x - 7 <= 0: coefficient 1 (04), constant -7 (1a).
  const std::vector<uint8_t> member = {0x01, 0x01, 0x01, 'x', 0x02, 0x00};
  auto at = std::search(payload.begin(), payload.end(), member.begin(),
                        member.end());
  ASSERT_NE(at, payload.end());
  at[4] = 0x04;
  at[5] = 0x1a;

  Leader leader;
  Socket sock = RawConnect(leader.port());
  Writer hello;
  hello.PutU32(net::kProtocolVersion);
  hello.PutString("implied-bound");
  ASSERT_TRUE(
      net::WriteFrame(&sock, net::MsgType::kHello, hello.buffer()).ok());
  net::Frame frame;
  ASSERT_TRUE(net::ReadFrame(&sock, &frame).ok());
  ASSERT_EQ(frame.type, net::MsgType::kHelloOk);
  ASSERT_TRUE(
      net::WriteFrame(&sock, net::MsgType::kLoadRelation, payload).ok());
  ExpectErrorFrame(&sock, StatusCode::kInvalidArgument);
  sock.Close();
  leader.WaitSessionsDrained();
}

TEST(NetFuzz, RandomGarbageNeverCrashesOrLeaks) {
  Leader leader;
  Rng rng(0xfeed);
  for (int round = 0; round < 40; ++round) {
    Socket sock = RawConnect(leader.port());
    const int len = static_cast<int>(rng.UniformInt(1, 64));
    std::vector<uint8_t> bytes;
    bytes.reserve(static_cast<size_t>(len));
    for (int i = 0; i < len; ++i) {
      bytes.push_back(static_cast<uint8_t>(rng.UniformInt(0, 255)));
    }
    IgnoreError(sock.SendAll(bytes.data(), bytes.size()));
    // Never block on a reply: random bytes may announce a longer frame
    // than was sent, in which case the server is (correctly) waiting for
    // the rest. Half the rounds half-close first so the server sees the
    // torn frame before the teardown; all rounds then close, which
    // unblocks any server thread mid-read.
    if (round % 2 == 0) sock.ShutdownSend();
  }
  // The server survived it all and leaked nothing.
  auto client = leader.Connect();
  EXPECT_TRUE(client->Execute("R0 = select x >= 0 from Boxes").ok());
  client.reset();
  leader.WaitSessionsDrained();
}

TEST(NetServer, ConcurrentClientsExecuteCorrectly) {
  Leader leader;
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&leader, &failures, c] {
      auto client = net::Client::Connect("127.0.0.1", leader.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesEach; ++q) {
        const int lo = (c * 293 + q * 157) % 2000;
        auto result = (*client)->Execute(
            "R0 = select x >= " + std::to_string(lo) + ", x <= " +
            std::to_string(lo + 300) + " from Boxes");
        if (!result.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  leader.WaitSessionsDrained();
}

// ---------------------------------------------------------------------
// Trace propagation + metrics snapshot over the wire
// ---------------------------------------------------------------------

TEST(NetServer, FetchTraceReturnsRemoteSpanTreeWithCallerTraceId) {
  Leader leader;
  auto client = leader.Connect();
  constexpr uint64_t kTraceId = 0xfeedbeef;
  service::QueryOptions opts;
  opts.trace_id = kTraceId;
  auto remote = client->FetchTrace(
      "R0 = select x >= 100, x <= 600 from Boxes\n"
      "R1 = select y >= 100, y <= 600 from Boxes\n"
      "R2 = join R0 and R1",
      opts);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  // The server echoes the client-assigned id and ships the full tree —
  // structure and per-layer counters, not pre-rendered text.
  EXPECT_EQ(remote->trace_id, kTraceId);
  EXPECT_FALSE(remote->plan_text.empty());
  EXPECT_FALSE(remote->root.children.empty());
  EXPECT_EQ(remote->root.tuples_out, remote->response.relation.size());
  EXPECT_GT(remote->root.TotalCounters().conjunctions, uint64_t{0});
  EXPECT_GT(remote->root.wall_us, 0.0);
  client.reset();
  leader.WaitSessionsDrained();
}

TEST(NetServer, MetricsSnapshotMergesServiceAndNetRegistries) {
  Leader leader;
  auto client = leader.Connect();
  ASSERT_TRUE(client->Execute("R0 = select x >= 0 from Boxes").ok());
  auto snapshot = client->MetricsSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  // Service-side values and the server's own net.* registry arrive in
  // one snapshot, sorted by name.
  EXPECT_GE(snapshot->Value(obs::names::kQueriesCompleted), uint64_t{1});
  EXPECT_GE(snapshot->Value(obs::names::kNetConnectionsTotal), uint64_t{1});
  EXPECT_EQ(snapshot->gauges.count(obs::names::kWalLsn), size_t{1});
  EXPECT_EQ(snapshot->gauges.count(obs::names::kProcessUptimeSeconds),
            size_t{1});
  EXPECT_TRUE(std::is_sorted(snapshot->values.begin(),
                             snapshot->values.end()));
  // The latency histogram crossed the wire with the query in it.
  bool found_latency = false;
  for (const auto& hist : snapshot->histograms) {
    if (hist.name == obs::names::kQueryLatencyUs) {
      found_latency = true;
      EXPECT_GE(hist.count, uint64_t{1});
    }
  }
  EXPECT_TRUE(found_latency);
  client.reset();
  leader.WaitSessionsDrained();
}

// ---------------------------------------------------------------------
// The HTTP status listener
// ---------------------------------------------------------------------

/// Sends raw bytes as an HTTP request and reads the whole response.
std::string HttpExchange(uint16_t port, const std::string& request) {
  Socket sock = RawConnect(port);
  EXPECT_TRUE(sock.SendAll(request.data(), request.size()).ok());
  sock.ShutdownSend();
  std::string response;
  char buf[2048];
  while (true) {
    auto got = sock.RecvSome(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    response.append(buf, *got);
  }
  return response;
}

/// The response body (after the blank line), or "" when malformed.
std::string HttpBody(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(StatusHttp, MetricsEndpointServesPrometheusExposition) {
  Leader leader;
  auto status = net::StatusServer::Start(leader.server());
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  auto client = leader.Connect();
  ASSERT_TRUE(client->Execute("R0 = select x >= 0 from Boxes").ok());

  const std::string response = HttpExchange(
      (*status)->port(), "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), size_t{0});
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  const std::string body = HttpBody(response);
  EXPECT_NE(body.find("# TYPE ccdb_queries_completed counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE ccdb_net_connections_total counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("ccdb_query_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(body.find("ccdb_build_info{version=\""), std::string::npos);
  // Content-Length matches the body exactly.
  const std::string marker = "Content-Length: ";
  const size_t at = response.find(marker);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::strtoull(response.c_str() + at + marker.size(), nullptr, 10),
            body.size());
  client.reset();
  leader.WaitSessionsDrained();
}

TEST(StatusHttp, HealthzReportsLeaderRole) {
  Leader leader;
  auto status = net::StatusServer::Start(leader.server());
  ASSERT_TRUE(status.ok());
  const std::string response = HttpExchange(
      (*status)->port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), size_t{0});
  const std::string body = HttpBody(response);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"role\":\"leader\""), std::string::npos);
  EXPECT_NE(body.find("\"catalog_epoch\":"), std::string::npos);
  EXPECT_NE(body.find("\"wal_lsn\":"), std::string::npos);
  EXPECT_EQ(body.find("\"replica\""), std::string::npos);
}

TEST(StatusHttp, MalformedOversizeAndUnknownRequestsGetTypedResponses) {
  Leader leader;
  auto status = net::StatusServer::Start(leader.server());
  ASSERT_TRUE(status.ok());
  const uint16_t port = (*status)->port();

  // Unknown path -> 404.
  EXPECT_EQ(HttpExchange(port, "GET /nope HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 404 Not Found\r\n", 0),
            size_t{0});
  // Non-GET -> 405.
  EXPECT_EQ(HttpExchange(port, "POST /metrics HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 405 Method Not Allowed\r\n", 0),
            size_t{0});
  // Malformed request line -> 400.
  EXPECT_EQ(HttpExchange(port, "NONSENSE\r\n\r\n")
                .rfind("HTTP/1.0 400 Bad Request\r\n", 0),
            size_t{0});
  // Binary garbage -> 400 (or clean close), never a hang or crash.
  const std::string garbage("\x01\x02\xff\xfe\x00\x07 garbage\r\n\r\n", 16);
  const std::string garbage_response = HttpExchange(port, garbage);
  if (!garbage_response.empty()) {
    EXPECT_EQ(garbage_response.rfind("HTTP/1.0 4", 0), size_t{0});
  }
  // Oversize head (no terminating blank line within the cap) -> 400.
  const std::string oversize =
      "GET /metrics HTTP/1.0\r\nX-Junk: " +
      std::string(net::StatusServer::kMaxRequestBytes + 100, 'j');
  EXPECT_EQ(HttpExchange(port, oversize)
                .rfind("HTTP/1.0 400 Bad Request\r\n", 0),
            size_t{0});
  // The status server survived it all.
  EXPECT_EQ(HttpExchange(port, "GET /healthz HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 200 OK\r\n", 0),
            size_t{0});
}

TEST(StatusHttp, ConcurrentScrapesWhileQueriesRun) {
  Leader leader;
  auto status = net::StatusServer::Start(leader.server());
  ASSERT_TRUE(status.ok());
  const uint16_t http_port = (*status)->port();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&leader, &failures] {
      auto client = net::Client::Connect("127.0.0.1", leader.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < 5; ++q) {
        if (!(*client)->Execute("R0 = select x >= 0 from Boxes").ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int s = 0; s < 8; ++s) {
    const std::string response =
        HttpExchange(http_port, "GET /metrics HTTP/1.0\r\n\r\n");
    if (response.rfind("HTTP/1.0 200 OK\r\n", 0) != 0) failures.fetch_add(1);
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  leader.WaitSessionsDrained();
}

TEST(StatusHttp, HealthzReportsReplicaRoleAndLag) {
  Leader leader;
  // A follower fronted by a read-only server; the replica publishes its
  // lag gauges into that server's registry, so both scrape surfaces see
  // them.
  Database follower_db;
  service::QueryService follower_service(&follower_db);
  net::ServerOptions sopts;
  sopts.read_only = true;
  auto follower_server = net::Server::Start(&follower_service, sopts);
  ASSERT_TRUE(follower_server.ok());
  net::ReplicaOptions ropts;
  ropts.start_paused = true;
  ropts.registry = &(*follower_server)->registry();
  auto replica = net::Replica::Start("127.0.0.1", leader.port(),
                                     &follower_service, ropts);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE((*replica)->WaitCaughtUp(10000).ok());

  net::StatusServerOptions stopts;
  stopts.replica = replica->get();
  auto status = net::StatusServer::Start(follower_server->get(), stopts);
  ASSERT_TRUE(status.ok());
  const uint16_t port = (*status)->port();

  const std::string health =
      HttpBody(HttpExchange(port, "GET /healthz HTTP/1.0\r\n\r\n"));
  EXPECT_NE(health.find("\"role\":\"replica\""), std::string::npos);
  EXPECT_NE(health.find("\"caught_up\":true"), std::string::npos);
  EXPECT_NE(health.find("\"lag_batches\":0"), std::string::npos);
  EXPECT_NE(health.find("\"applied_lsn\":"), std::string::npos);

  const std::string metrics =
      HttpBody(HttpExchange(port, "GET /metrics HTTP/1.0\r\n\r\n"));
  EXPECT_NE(metrics.find("# TYPE ccdb_replica_lag_batches gauge\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("ccdb_replica_last_apply_lsn "), std::string::npos);
  EXPECT_NE(metrics.find("ccdb_replica_resyncs "), std::string::npos);
}

// ---------------------------------------------------------------------
// The listener both servers share (net/listener.h)
// ---------------------------------------------------------------------

TEST(NetListener, ConnectionCapHoldsAgainstABurstOfSilentConnects) {
  Database db;
  service::QueryService service(&db);
  net::ServerOptions options;
  options.max_connections = 2;
  auto server = net::Server::Start(&service, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  // Eight connects at once, none sending HELLO: two are admitted (and
  // wait for HELLO); six are refused with a typed frame, although the
  // first two may not have registered when the others arrive.
  std::vector<Socket> socks;
  for (int i = 0; i < 8; ++i) socks.push_back(RawConnect((*server)->port()));
  int refused = 0;
  for (Socket& sock : socks) {
    ASSERT_TRUE(sock.SetRecvTimeout(200).ok());
    net::Frame frame;
    if (net::ReadFrame(&sock, &frame).ok()) {
      EXPECT_EQ(frame.type, net::MsgType::kError);
      ++refused;
    }
  }
  EXPECT_EQ(refused, 6);
  EXPECT_EQ((*server)->open_connections(), 2u);
}

/// Shutdowns, out of `rounds` x 6 delays, that did not finish within 2 s
/// of a silent connect. Each round starts a server with `start`, connects
/// a client that sends nothing, waits the delay (0-80 us, around the
/// moment the connection thread starts) and runs Shutdown on another
/// thread. A shutdown that times out is released by closing the client,
/// so a hang is counted, never waited out.
template <typename StartFn>
int CountHungShutdowns(int rounds, StartFn start) {
  int hung = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int delay_us : {0, 5, 10, 20, 40, 80}) {
      auto server = start();
      Socket silent = RawConnect(server->port());
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      std::promise<void> done;
      std::future<void> drained = done.get_future();
      std::thread shutdown([&server, &done] {
        server->Shutdown();
        done.set_value();
      });
      if (drained.wait_for(std::chrono::seconds(2)) !=
          std::future_status::ready) {
        ++hung;
        silent.Close();
      }
      shutdown.join();
    }
  }
  return hung;
}

TEST(NetDrain, ServerShutdownAfterASilentConnectFinishes) {
  Leader leader;
  const int hung = CountHungShutdowns(200, [&leader] {
    auto server = net::Server::Start(leader.service());
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(*server);
  });
  EXPECT_EQ(hung, 0) << "of 1200 shutdowns";
}

TEST(NetDrain, StatusServerShutdownAfterASilentConnectFinishes) {
  Leader leader;
  const int hung = CountHungShutdowns(200, [&leader] {
    auto server = net::StatusServer::Start(leader.server());
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(*server);
  });
  EXPECT_EQ(hung, 0) << "of 1200 shutdowns";
}

// ---------------------------------------------------------------------
// WAL-shipping replication
// ---------------------------------------------------------------------

/// A follower: its own service + a paused Replica driven by the test.
class Follower {
 public:
  explicit Follower(uint16_t leader_port) {
    service_ = std::make_unique<service::QueryService>(&db_);
    net::ReplicaOptions opts;
    opts.start_paused = true;
    auto replica =
        net::Replica::Start("127.0.0.1", leader_port, service_.get(), opts);
    EXPECT_TRUE(replica.ok()) << replica.status().ToString();
    replica_ = std::move(*replica);
  }

  net::Replica* replica() { return replica_.get(); }
  service::QueryService* service() { return service_.get(); }

 private:
  Database db_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<net::Replica> replica_;
};

/// Every leader-visible base relation must read identically on the
/// follower.
void ExpectCatalogsEqual(service::QueryService* leader,
                         service::QueryService* follower) {
  const auto ls = leader->OpenSession();
  const auto fs = follower->OpenSession();
  const std::vector<std::string> names = leader->VisibleNames(ls);
  EXPECT_EQ(names, follower->VisibleNames(fs));
  for (const std::string& name : names) {
    auto lrel = leader->GetRelation(ls, name);
    auto frel = follower->GetRelation(fs, name);
    ASSERT_TRUE(lrel.ok());
    ASSERT_TRUE(frel.ok()) << name << ": " << frel.status().ToString();
    EXPECT_EQ(lrel->ToString(), frel->ToString()) << name;
  }
  EXPECT_TRUE(leader->CloseSession(ls).ok());
  EXPECT_TRUE(follower->CloseSession(fs).ok());
}

TEST(Replication, BootstrapSnapshotThenFollowBatches) {
  Leader leader;
  Follower follower(leader.port());

  // First sync: full snapshot bootstrap.
  ASSERT_TRUE(follower.replica()->SyncOnce().ok());
  auto stats = follower.replica()->stats();
  EXPECT_EQ(stats.snapshots_installed, 1u);
  EXPECT_TRUE(stats.caught_up);
  ExpectCatalogsEqual(leader.service(), follower.service());

  // Continuous writes on the leader; the follower applies them as
  // shipped batches — no further snapshot.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(leader.service()
                    ->ReplaceRelation("Boxes", BoxRelation(30 + i, 11 + i))
                    .ok());
    ASSERT_TRUE(follower.replica()->SyncOnce().ok());
  }
  stats = follower.replica()->stats();
  EXPECT_EQ(stats.snapshots_installed, 1u);
  EXPECT_GE(stats.batches_applied, 3u);
  EXPECT_TRUE(stats.caught_up);
  EXPECT_EQ(stats.lag_batches, 0u);
  ExpectCatalogsEqual(leader.service(), follower.service());
}

TEST(Replication, FollowerServesReadsAndRefusesWrites) {
  Leader leader;
  Follower follower(leader.port());
  ASSERT_TRUE(follower.replica()->SyncOnce().ok());

  // Front the follower with a read-only server.
  net::ServerOptions nopts;
  nopts.read_only = true;
  auto front = net::Server::Start(follower.service(), nopts);
  ASSERT_TRUE(front.ok());
  auto client = net::Client::Connect("127.0.0.1", (*front)->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->server_read_only());
  auto result = (*client)->Execute("R0 = select x >= 0 from Boxes");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*client)->LoadRelation("X", BoxRelation(3, 1)).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ((*client)->Checkpoint().code(), StatusCode::kUnavailable);
}

struct FaultCase {
  const char* name;
  net::ShipFaults faults;
};

/// Dropped, truncated, corrupted, and reordered shipments must each be
/// rejected by the recovery-grade validation and healed by a snapshot
/// re-sync that restores leader/follower equality.
TEST(Replication, ShipmentFaultsForceResyncThenConverge) {
  // Fault indexes are 1-based over the server-lifetime shipped batches;
  // the bootstrap is a snapshot, so batch #1 is the first post-bootstrap
  // shipment.
  const FaultCase cases[] = {
      {"drop", {.drop_at = 1}},
      {"truncate", {.truncate_at = 1}},
      {"corrupt", {.corrupt_at = 1}},
      {"reorder", {.reorder_at = 1}},
  };
  for (const FaultCase& c : cases) {
    SCOPED_TRACE(c.name);
    Leader leader(c.faults);
    Follower follower(leader.port());
    ASSERT_TRUE(follower.replica()->SyncOnce().ok());  // bootstrap

    // Two committed batches; the fault hits the first shipped record.
    ASSERT_TRUE(
        leader.service()->ReplaceRelation("Boxes", BoxRelation(20, 5)).ok());
    ASSERT_TRUE(
        leader.service()->ReplaceRelation("Boxes", BoxRelation(25, 6)).ok());

    // Drive syncs until converged; the faulted round may fail (typed) —
    // it must never apply a bad batch.
    Status last = Status::OK();
    for (int i = 0; i < 6; ++i) {
      last = follower.replica()->SyncOnce();
      if (last.ok() && follower.replica()->stats().caught_up) break;
    }
    ASSERT_TRUE(last.ok()) << last.ToString();
    const auto stats = follower.replica()->stats();
    EXPECT_TRUE(stats.caught_up);
    // Dropping the *last* record of a shipment self-heals by re-request;
    // every other fault forces a snapshot re-sync.
    if (std::string(c.name) != "drop") {
      EXPECT_GE(stats.resyncs, 1u) << c.name;
      EXPECT_GE(stats.snapshots_installed, 2u) << c.name;
    }
    ExpectCatalogsEqual(leader.service(), follower.service());
  }
}

TEST(Replication, LagIsReportedWhenShipmentsGoMissing) {
  net::ShipFaults faults;
  faults.drop_at = 2;  // swallow the second post-bootstrap batch
  Leader leader(faults);
  Follower follower(leader.port());
  ASSERT_TRUE(follower.replica()->SyncOnce().ok());

  ASSERT_TRUE(
      leader.service()->ReplaceRelation("Boxes", BoxRelation(21, 8)).ok());
  ASSERT_TRUE(
      leader.service()->ReplaceRelation("Boxes", BoxRelation(22, 9)).ok());
  // The shipment delivers batch 1 but drops batch 2: the follower is
  // behind and must say so.
  ASSERT_TRUE(follower.replica()->SyncOnce().ok());
  auto stats = follower.replica()->stats();
  EXPECT_FALSE(stats.caught_up);
  EXPECT_GE(stats.lag_batches, 1u);
  // The next round re-requests the missing LSN and catches up.
  ASSERT_TRUE(follower.replica()->SyncOnce().ok());
  stats = follower.replica()->stats();
  EXPECT_TRUE(stats.caught_up);
  EXPECT_EQ(stats.lag_batches, 0u);
  ExpectCatalogsEqual(leader.service(), follower.service());
}

TEST(Replication, LeaderCheckpointForcesSnapshotResync) {
  Leader leader;
  Follower follower(leader.port());
  ASSERT_TRUE(follower.replica()->SyncOnce().ok());

  // Writes the follower never saw, then a checkpoint that truncates them
  // out of the log: SHIP_WAL from the follower's position must answer
  // with a snapshot, not a hole.
  ASSERT_TRUE(
      leader.service()->ReplaceRelation("Boxes", BoxRelation(33, 4)).ok());
  ASSERT_TRUE(leader.service()->Checkpoint().ok());

  ASSERT_TRUE(follower.replica()->SyncOnce().ok());
  const auto stats = follower.replica()->stats();
  EXPECT_GE(stats.snapshots_installed, 2u);
  EXPECT_TRUE(stats.caught_up);
  ExpectCatalogsEqual(leader.service(), follower.service());
}

TEST(Replication, ContinuousSyncThreadCatchesUp) {
  Leader leader;
  Database fdb;
  service::QueryService fservice(&fdb);
  net::ReplicaOptions opts;
  opts.poll_interval_ms = 2;
  auto replica =
      net::Replica::Start("127.0.0.1", leader.port(), &fservice, opts);
  ASSERT_TRUE(replica.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(leader.service()
                    ->ReplaceRelation("Boxes", BoxRelation(15 + i, 40 + i))
                    .ok());
  }
  ASSERT_TRUE((*replica)->WaitCaughtUp(10000).ok());
  ExpectCatalogsEqual(leader.service(), &fservice);
  (*replica)->Stop();
}

/// Regression: the follower must never expose a half-applied catalog.
/// The leader commits relation pairs (A, B) with identical contents in
/// one transaction; follower readers difference them in single scripts
/// (one pinned snapshot each) while syncs — including a fault-forced
/// snapshot re-sync — republish the catalog. Any non-empty difference
/// means a reader saw new-A with old-B: a torn publish.
TEST(Replication, FollowerNeverExposesHalfAppliedCatalog) {
  net::ShipFaults faults;
  faults.corrupt_at = 3;  // force a mid-storm snapshot re-sync
  Leader leader(faults);
  const auto ls = leader.service()->OpenSession();
  ASSERT_TRUE(leader.service()->Begin(ls).ok());
  ASSERT_TRUE(
      leader.service()->CreateRelation(ls, "A", BoxRelation(10, 1)).ok());
  ASSERT_TRUE(
      leader.service()->CreateRelation(ls, "B", BoxRelation(10, 1)).ok());
  ASSERT_TRUE(leader.service()->Commit(ls).ok());

  Follower follower(leader.port());
  ASSERT_TRUE(follower.replica()->SyncOnce().ok());

  // Sanity-check the torn-pair detector while nothing is being written.
  {
    const auto fs = follower.service()->OpenSession();
    auto same = follower.service()->Execute(fs, "R0 = minus A and B");
    ASSERT_TRUE(same.ok()) << same.status().ToString();
    ASSERT_EQ(same->relation.size(), 0u);
    EXPECT_TRUE(follower.service()->CloseSession(fs).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      const auto fs = follower.service()->OpenSession();
      while (!stop.load()) {
        auto diff = follower.service()->Execute(fs, "R0 = minus A and B");
        ASSERT_TRUE(diff.ok()) << diff.status().ToString();
        ++reads;
        if (diff->relation.size() != 0) ++torn;
      }
      EXPECT_TRUE(follower.service()->CloseSession(fs).ok());
    });
  }

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(leader.service()->Begin(ls).ok());
    ASSERT_TRUE(leader.service()
                    ->ReplaceRelation(ls, "A", BoxRelation(8 + i, 20 + i))
                    .ok());
    ASSERT_TRUE(leader.service()
                    ->ReplaceRelation(ls, "B", BoxRelation(8 + i, 20 + i))
                    .ok());
    ASSERT_TRUE(leader.service()->Commit(ls).ok());
    // The corrupted shipment round fails (typed) and heals by re-sync on
    // a later round — both publish paths run under the readers.
    IgnoreError(follower.replica()->SyncOnce());
  }
  Status synced = Status::OK();
  for (int i = 0; i < 6 && !follower.replica()->stats().caught_up; ++i) {
    synced = follower.replica()->SyncOnce();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  ASSERT_TRUE(synced.ok()) << synced.ToString();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(torn.load(), 0u)
      << "a reader observed a half-applied follower catalog";
  EXPECT_GE(follower.replica()->stats().resyncs, 1u);
  ExpectCatalogsEqual(leader.service(), follower.service());
  EXPECT_TRUE(leader.service()->CloseSession(ls).ok());
}

TEST(Replication, DroppedRelationPropagates) {
  Leader leader;
  Follower follower(leader.port());
  ASSERT_TRUE(follower.replica()->SyncOnce().ok());
  ASSERT_TRUE(leader.service()->DropRelation("Boxes").ok());
  ASSERT_TRUE(follower.replica()->SyncOnce().ok());
  ExpectCatalogsEqual(leader.service(), follower.service());
  const auto fs = follower.service()->OpenSession();
  EXPECT_TRUE(follower.service()->VisibleNames(fs).empty());
  EXPECT_TRUE(follower.service()->CloseSession(fs).ok());
}

}  // namespace
}  // namespace ccdb
