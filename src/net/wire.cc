#include "net/wire.h"

#include <cstring>

#include "storage/wal.h"  // Crc32

namespace ccdb::net {

namespace {

void StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

bool IsKnownMsgType(uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kHello:
    case MsgType::kQuery:
    case MsgType::kSubmit:
    case MsgType::kWait:
    case MsgType::kCancel:
    case MsgType::kCheckpoint:
    case MsgType::kMetrics:
    case MsgType::kListRelations:
    case MsgType::kGetRelation:
    case MsgType::kLoadRelation:
    case MsgType::kShipWal:
    case MsgType::kFetchTrace:
    case MsgType::kMetricsSnapshot:
    case MsgType::kPromote:
    case MsgType::kOk:
    case MsgType::kError:
    case MsgType::kResult:
    case MsgType::kSubmitted:
    case MsgType::kMetricsText:
    case MsgType::kNameList:
    case MsgType::kRelationData:
    case MsgType::kHelloOk:
    case MsgType::kSnapshot:
    case MsgType::kWalBatch:
    case MsgType::kShipEnd:
    case MsgType::kTraceTree:
    case MsgType::kMetricsSnapshotData:
    case MsgType::kPromoted:
      return true;
  }
  return false;
}

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kQuery: return "QUERY";
    case MsgType::kSubmit: return "SUBMIT";
    case MsgType::kWait: return "WAIT";
    case MsgType::kCancel: return "CANCEL";
    case MsgType::kCheckpoint: return "CHECKPOINT";
    case MsgType::kMetrics: return "METRICS";
    case MsgType::kListRelations: return "LIST_RELATIONS";
    case MsgType::kGetRelation: return "GET_RELATION";
    case MsgType::kLoadRelation: return "LOAD_RELATION";
    case MsgType::kShipWal: return "SHIP_WAL";
    case MsgType::kFetchTrace: return "FETCH_TRACE";
    case MsgType::kMetricsSnapshot: return "METRICS_SNAPSHOT";
    case MsgType::kPromote: return "PROMOTE";
    case MsgType::kOk: return "OK";
    case MsgType::kError: return "ERROR";
    case MsgType::kResult: return "RESULT";
    case MsgType::kSubmitted: return "SUBMITTED";
    case MsgType::kMetricsText: return "METRICS_TEXT";
    case MsgType::kNameList: return "NAME_LIST";
    case MsgType::kRelationData: return "RELATION_DATA";
    case MsgType::kHelloOk: return "HELLO_OK";
    case MsgType::kSnapshot: return "SNAPSHOT";
    case MsgType::kWalBatch: return "WAL_BATCH";
    case MsgType::kShipEnd: return "SHIP_END";
    case MsgType::kTraceTree: return "TRACE_TREE";
    case MsgType::kMetricsSnapshotData: return "METRICS_SNAPSHOT_DATA";
    case MsgType::kPromoted: return "PROMOTED";
  }
  return "?";
}

Status WriteFrame(Socket* sock, MsgType type,
                  const std::vector<uint8_t>& payload, uint64_t* bytes_out) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload too large: " + std::to_string(payload.size()) +
        " bytes (max " + std::to_string(kMaxFramePayload) + ")");
  }
  // One contiguous buffer so the frame leaves in a single send: the CRC
  // covers wire[4..4+1+len) — the type byte and the payload.
  std::vector<uint8_t> wire(kFrameOverhead + payload.size());
  StoreU32(wire.data(), static_cast<uint32_t>(payload.size()));
  wire[4] = static_cast<uint8_t>(type);
  if (!payload.empty()) {
    std::memcpy(wire.data() + 5, payload.data(), payload.size());
  }
  const uint32_t crc = Crc32(wire.data() + 4, 1 + payload.size());
  StoreU32(wire.data() + 5 + payload.size(), crc);
  CCDB_RETURN_IF_ERROR(sock->SendAll(wire.data(), wire.size()));
  if (bytes_out != nullptr) *bytes_out += wire.size();
  return Status::OK();
}

Status ReadFrame(Socket* sock, Frame* out, uint64_t* bytes_in) {
  uint8_t header[5];
  CCDB_RETURN_IF_ERROR(sock->RecvAll(header, sizeof(header)));
  const uint32_t len = LoadU32(header);
  const uint8_t type = header[4];
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame length " + std::to_string(len) + " exceeds the " +
        std::to_string(kMaxFramePayload) + "-byte bound");
  }
  // Read the body (and its CRC) before judging the type byte: a reply is
  // only possible if the stream stays frame-aligned.
  std::vector<uint8_t> crc_buf(1 + len);
  crc_buf[0] = type;
  if (len > 0) {
    CCDB_RETURN_IF_ERROR(sock->RecvAll(crc_buf.data() + 1, len));
  }
  uint8_t crc_bytes[4];
  CCDB_RETURN_IF_ERROR(sock->RecvAll(crc_bytes, sizeof(crc_bytes)));
  const uint32_t want = LoadU32(crc_bytes);
  const uint32_t got = Crc32(crc_buf.data(), crc_buf.size());
  if (got != want) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  if (!IsKnownMsgType(type)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  if (bytes_in != nullptr) *bytes_in += kFrameOverhead + len;
  out->type = static_cast<MsgType>(type);
  out->payload.assign(crc_buf.begin() + 1, crc_buf.end());
  return Status::OK();
}

void PutQueryOptions(Writer* w, const service::QueryOptions& opts) {
  w->PutU8(opts.deadline_us.has_value() ? 1 : 0);
  w->PutU64(opts.deadline_us ? DoubleBits(*opts.deadline_us) : 0);
  w->PutU8(opts.max_tuples.has_value() ? 1 : 0);
  w->PutU64(opts.max_tuples.value_or(0));
  w->PutU8(opts.max_constraints.has_value() ? 1 : 0);
  w->PutU64(opts.max_constraints.value_or(0));
  w->PutU8(opts.max_memory_bytes.has_value() ? 1 : 0);
  w->PutU64(opts.max_memory_bytes.value_or(0));
  // 0 = unset, 1 = false, 2 = true.
  w->PutU8(opts.allow_partial.has_value() ? (*opts.allow_partial ? 2 : 1)
                                          : 0);
  w->PutU64(opts.trip_at_check);
  w->PutU64(opts.trace_id);
  w->PutU64(opts.request_id);
  // QueryOptions::cancel is a process-local token; remote cancellation
  // goes through the CANCEL request instead.
}

Status GetQueryOptions(Reader* r, service::QueryOptions* out) {
  service::QueryOptions opts;
  CCDB_ASSIGN_OR_RETURN(uint8_t has_deadline, r->GetU8());
  CCDB_ASSIGN_OR_RETURN(uint64_t deadline_bits, r->GetU64());
  CCDB_ASSIGN_OR_RETURN(uint8_t has_tuples, r->GetU8());
  CCDB_ASSIGN_OR_RETURN(uint64_t max_tuples, r->GetU64());
  CCDB_ASSIGN_OR_RETURN(uint8_t has_constraints, r->GetU8());
  CCDB_ASSIGN_OR_RETURN(uint64_t max_constraints, r->GetU64());
  CCDB_ASSIGN_OR_RETURN(uint8_t has_memory, r->GetU8());
  CCDB_ASSIGN_OR_RETURN(uint64_t max_memory, r->GetU64());
  CCDB_ASSIGN_OR_RETURN(uint8_t partial, r->GetU8());
  CCDB_ASSIGN_OR_RETURN(uint64_t trip_at_check, r->GetU64());
  CCDB_ASSIGN_OR_RETURN(uint64_t trace_id, r->GetU64());
  CCDB_ASSIGN_OR_RETURN(uint64_t request_id, r->GetU64());
  for (uint8_t flag : {has_deadline, has_tuples, has_constraints, has_memory}) {
    if (flag > 1) {
      return Status::InvalidArgument("query options: presence flag > 1");
    }
  }
  if (partial > 2) {
    return Status::InvalidArgument("query options: bad allow_partial byte");
  }
  if (has_deadline != 0) {
    const double deadline = BitsToDouble(deadline_bits);
    if (!(deadline >= 0)) {  // also rejects NaN
      return Status::InvalidArgument("query options: negative deadline");
    }
    opts.deadline_us = deadline;
  }
  if (has_tuples != 0) opts.max_tuples = max_tuples;
  if (has_constraints != 0) opts.max_constraints = max_constraints;
  if (has_memory != 0) opts.max_memory_bytes = max_memory;
  if (partial != 0) opts.allow_partial = (partial == 2);
  opts.trip_at_check = trip_at_check;
  opts.trace_id = trace_id;
  opts.request_id = request_id;
  *out = std::move(opts);
  return Status::OK();
}

void PutRelation(Writer* w, const Relation& relation) {
  PutSchema(w, relation.schema());
  w->PutVarint(relation.size());
  for (const Tuple& tuple : relation.tuples()) {
    // Each record goes straight into the frame; its length is patched in.
    const size_t at = w->size();
    w->PutU32(0);
    PutTuple(w, tuple);
    w->PatchU32(at, static_cast<uint32_t>(w->size() - at - 4));
  }
}

Status GetRelation(Reader* r, Relation* out) {
  CCDB_ASSIGN_OR_RETURN(Schema schema, GetSchema(r));
  CCDB_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  Relation relation{std::move(schema)};
  for (uint64_t i = 0; i < n; ++i) {
    CCDB_ASSIGN_OR_RETURN(uint32_t len, r->GetU32());
    CCDB_ASSIGN_OR_RETURN(Reader record, r->GetView(len));
    CCDB_ASSIGN_OR_RETURN(Tuple tuple, DeserializeTuple(record));
    CCDB_RETURN_IF_ERROR(relation.Insert(std::move(tuple)));
  }
  *out = std::move(relation);
  return Status::OK();
}

void PutQueryResponse(Writer* w, const service::QueryResponse& response) {
  w->PutString(response.step);
  w->PutU8(response.cache_hit ? 1 : 0);
  w->PutU8(response.truncated ? 1 : 0);
  w->PutU64(DoubleBits(response.latency_us));
  PutRelation(w, response.relation);
}

Status GetQueryResponse(Reader* r, service::QueryResponse* out) {
  service::QueryResponse response;
  CCDB_ASSIGN_OR_RETURN(response.step, r->GetString());
  CCDB_ASSIGN_OR_RETURN(uint8_t cache_hit, r->GetU8());
  CCDB_ASSIGN_OR_RETURN(uint8_t truncated, r->GetU8());
  CCDB_ASSIGN_OR_RETURN(uint64_t latency_bits, r->GetU64());
  if (cache_hit > 1 || truncated > 1) {
    return Status::InvalidArgument("query response: bad flag byte");
  }
  response.cache_hit = cache_hit != 0;
  response.truncated = truncated != 0;
  response.latency_us = BitsToDouble(latency_bits);
  CCDB_RETURN_IF_ERROR(GetRelation(r, &response.relation));
  *out = std::move(response);
  return Status::OK();
}

void PutTraceNode(Writer* w, const obs::TraceNode& node) {
  w->PutString(node.label);
  w->PutU64(DoubleBits(node.wall_us));
  w->PutU64(DoubleBits(node.self_us));
  w->PutU64(node.tuples_in);
  w->PutU64(node.tuples_out);
  for (const obs::LayerCounterField& f : obs::kLayerCounterFields) {
    w->PutU64(node.counters.*f.member);
  }
  w->PutU32(static_cast<uint32_t>(node.children.size()));
  for (const obs::TraceNode& child : node.children) {
    PutTraceNode(w, child);
  }
}

Status GetTraceNode(Reader* r, obs::TraceNode* out, uint32_t depth) {
  if (depth >= kMaxTraceDepth) {
    return Status::InvalidArgument("trace tree nested deeper than " +
                                   std::to_string(kMaxTraceDepth));
  }
  obs::TraceNode node;
  CCDB_ASSIGN_OR_RETURN(node.label, r->GetString());
  CCDB_ASSIGN_OR_RETURN(uint64_t wall_bits, r->GetU64());
  CCDB_ASSIGN_OR_RETURN(uint64_t self_bits, r->GetU64());
  node.wall_us = BitsToDouble(wall_bits);
  node.self_us = BitsToDouble(self_bits);
  CCDB_ASSIGN_OR_RETURN(node.tuples_in, r->GetU64());
  CCDB_ASSIGN_OR_RETURN(node.tuples_out, r->GetU64());
  for (const obs::LayerCounterField& f : obs::kLayerCounterFields) {
    CCDB_ASSIGN_OR_RETURN(node.counters.*f.member, r->GetU64());
  }
  CCDB_ASSIGN_OR_RETURN(uint32_t n_children, r->GetU32());
  // Every child costs at least its label length prefix + the fixed
  // fields, so a count beyond the frame bound is lying.
  if (n_children > kMaxFramePayload / 16) {
    return Status::InvalidArgument("trace tree child count implausible");
  }
  node.children.reserve(n_children);
  for (uint32_t i = 0; i < n_children; ++i) {
    obs::TraceNode child;
    CCDB_RETURN_IF_ERROR(GetTraceNode(r, &child, depth + 1));
    node.children.push_back(std::move(child));
  }
  *out = std::move(node);
  return Status::OK();
}

void PutRegistrySnapshot(Writer* w,
                         const obs::MetricsRegistry::Snapshot& snapshot) {
  w->PutU32(static_cast<uint32_t>(snapshot.values.size()));
  for (const auto& [name, value] : snapshot.values) {
    w->PutString(name);
    w->PutU64(value);
    w->PutU8(snapshot.gauges.count(name) != 0 ? 1 : 0);
  }
  w->PutU32(static_cast<uint32_t>(snapshot.histograms.size()));
  for (const obs::Histogram::Snapshot& hist : snapshot.histograms) {
    w->PutString(hist.name);
    w->PutU64(hist.count);
    w->PutU64(hist.sum);
    w->PutU32(static_cast<uint32_t>(hist.buckets.size()));
    for (uint64_t bucket : hist.buckets) w->PutU64(bucket);
  }
}

Status GetRegistrySnapshot(Reader* r, obs::MetricsRegistry::Snapshot* out) {
  obs::MetricsRegistry::Snapshot snapshot;
  CCDB_ASSIGN_OR_RETURN(uint32_t n_values, r->GetU32());
  if (n_values > kMaxFramePayload / 16) {
    return Status::InvalidArgument("registry snapshot value count implausible");
  }
  snapshot.values.reserve(n_values);
  for (uint32_t i = 0; i < n_values; ++i) {
    std::pair<std::string, uint64_t> entry;
    CCDB_ASSIGN_OR_RETURN(entry.first, r->GetString());
    CCDB_ASSIGN_OR_RETURN(entry.second, r->GetU64());
    CCDB_ASSIGN_OR_RETURN(uint8_t is_gauge, r->GetU8());
    if (is_gauge > 1) {
      return Status::InvalidArgument("registry snapshot: bad gauge flag");
    }
    if (is_gauge != 0) snapshot.gauges.insert(entry.first);
    snapshot.values.push_back(std::move(entry));
  }
  CCDB_ASSIGN_OR_RETURN(uint32_t n_hists, r->GetU32());
  if (n_hists > kMaxFramePayload / 16) {
    return Status::InvalidArgument(
        "registry snapshot histogram count implausible");
  }
  snapshot.histograms.reserve(n_hists);
  for (uint32_t i = 0; i < n_hists; ++i) {
    obs::Histogram::Snapshot hist;
    CCDB_ASSIGN_OR_RETURN(hist.name, r->GetString());
    CCDB_ASSIGN_OR_RETURN(hist.count, r->GetU64());
    CCDB_ASSIGN_OR_RETURN(hist.sum, r->GetU64());
    CCDB_ASSIGN_OR_RETURN(uint32_t n_buckets, r->GetU32());
    if (n_buckets != hist.buckets.size()) {
      return Status::InvalidArgument(
          "registry snapshot: histogram bucket count mismatch");
    }
    for (size_t b = 0; b < hist.buckets.size(); ++b) {
      CCDB_ASSIGN_OR_RETURN(hist.buckets[b], r->GetU64());
    }
    snapshot.histograms.push_back(std::move(hist));
  }
  *out = std::move(snapshot);
  return Status::OK();
}

std::vector<uint8_t> EncodeErrorPayload(const Status& status) {
  const std::string bytes = EncodeStatus(status);
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

Status DecodeErrorPayload(const std::vector<uint8_t>& payload, Status* out) {
  return DecodeStatus(std::string(payload.begin(), payload.end()), out);
}

}  // namespace ccdb::net
