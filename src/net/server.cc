#include "net/server.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/metric_names.h"
#include "storage/serde.h"
#include "util/backoff.h"

namespace ccdb::net {


Server::Server(service::QueryService* service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      listener_(options_.max_connections, [this](Socket* sock) {
        IgnoreError(SendError(sock, Status::Unavailable("too many connections")
                                        .WithRetryAfter(50)));
      }) {
  term_.store(options_.term, std::memory_order_release);
  read_only_.store(options_.read_only, std::memory_order_release);
  store_.store(options_.store, std::memory_order_release);
  conns_total_ = registry_.GetCounter(obs::names::kNetConnectionsTotal);
  bytes_in_ = registry_.GetCounter(obs::names::kNetBytesIn);
  bytes_out_ = registry_.GetCounter(obs::names::kNetBytesOut);
  frames_in_ = registry_.GetCounter(obs::names::kNetFramesIn);
  protocol_errors_ = registry_.GetCounter(obs::names::kNetProtocolErrors);
  ship_batches_ = registry_.GetCounter(obs::names::kNetShipBatches);
  ship_snapshots_ = registry_.GetCounter(obs::names::kNetShipSnapshots);
  registry_.SetGauge(obs::names::kNetTerm, static_cast<double>(options_.term));
}

void Server::Promote(uint64_t term, DurableStore* store) {
  if (!read_only_.load(std::memory_order_acquire)) return;
  store_.store(store, std::memory_order_release);
  term_.store(term, std::memory_order_release);
  read_only_.store(false, std::memory_order_release);
  registry_.SetGauge(obs::names::kNetTerm, static_cast<double>(term));
  if (options_.event_log != nullptr) {
    obs::Event event;
    event.type = "promoted";
    event.detail = "serving writes under term " + std::to_string(term);
    options_.event_log->Emit(event);
  }
}

Result<std::unique_ptr<Server>> Server::Start(service::QueryService* service,
                                              ServerOptions options) {
  if (service == nullptr) {
    return Status::InvalidArgument("Server::Start: null service");
  }
  auto server =
      std::unique_ptr<Server>(new Server(service, std::move(options)));
  CCDB_RETURN_IF_ERROR(server->listener_.Start(
      server->options_.port,
      std::bind_front(&Server::ServeConnection, server.get())));
  return server;
}

std::string Server::MetricsText() const {
  registry_.SetGauge(obs::names::kNetConnectionsOpen, listener_.open());
  return service_->Metrics().ToString() + "\n--- net ---\n" +
         registry_.ToString();
}

obs::MetricsRegistry::Snapshot Server::MergedSnapshot() const {
  registry_.SetGauge(obs::names::kNetConnectionsOpen, listener_.open());
  obs::MetricsRegistry::Snapshot merged = service_->MetricsSnapshot();
  obs::MetricsRegistry::Snapshot net = registry_.TakeSnapshot();
  // The two registries declare disjoint name sets (service.* vs net.*),
  // so a plain append + re-sort is a correct merge.
  merged.values.insert(merged.values.end(), net.values.begin(),
                       net.values.end());
  std::sort(merged.values.begin(), merged.values.end());
  merged.gauges.insert(net.gauges.begin(), net.gauges.end());
  merged.histograms.insert(merged.histograms.end(),
                           std::make_move_iterator(net.histograms.begin()),
                           std::make_move_iterator(net.histograms.end()));
  return merged;
}

Status Server::SendError(Socket* sock, const Status& error) {
  uint64_t sent = 0;
  Status out =
      WriteFrame(sock, MsgType::kError, EncodeErrorPayload(error), &sent);
  bytes_out_->Add(sent);
  return out;
}

void Server::ServeConnection(uint64_t conn_id, Socket* sock) {
  conns_total_->Increment();
  if (options_.event_log != nullptr) {
    obs::Event event;
    event.type = "conn_open";
    event.conn_id = conn_id;
    options_.event_log->Emit(event);
  }

  Conn conn;
  while (true) {
    Frame frame;
    uint64_t got = 0;
    Status read = ReadFrame(sock, &frame, &got);
    bytes_in_->Add(got);
    if (!read.ok()) {
      if (read.code() == StatusCode::kInvalidArgument) {
        // Oversized, unknown-type, or CRC-corrupt frame: the stream can
        // no longer be trusted to be frame-aligned — reply (best effort)
        // and drop the connection.
        protocol_errors_->Increment();
        IgnoreError(SendError(sock, read));
      }
      break;  // clean EOF, torn frame, or drain
    }
    frames_in_->Increment();
    bool close_conn = false;
    if (!Dispatch(&conn, sock, frame, &close_conn).ok()) break;
    if (close_conn) break;
  }

  // Reclaim the session: cancel what the client abandoned mid-flight.
  if (conn.helloed) {
    for (auto& [query_id, future] : conn.pending) {
      IgnoreError(service_->Cancel(conn.session, query_id));
    }
    IgnoreError(service_->CloseSession(conn.session));
  }
  if (options_.event_log != nullptr) {
    obs::Event event;
    event.type = "conn_close";
    event.conn_id = conn_id;
    event.session = conn.session;
    options_.event_log->Emit(event);
  }
}

Status Server::Dispatch(Conn* conn, Socket* sock, const Frame& frame,
                        bool* close_conn) {
  // Local helper: send one response frame, metering bytes out.
  auto reply = [&](MsgType type, const std::vector<uint8_t>& payload) {
    uint64_t sent = 0;
    Status out = WriteFrame(sock, type, payload, &sent);
    bytes_out_->Add(sent);
    return out;
  };

  // A request payload that does not decode is the peer's fault, not I/O:
  // surface it as kInvalidArgument no matter what code the decoder used
  // (the serde Reader reports underflow as kIoError, which over the wire
  // would read as server-side disk trouble).
  auto bad_payload = [&](const Status& parse) {
    protocol_errors_->Increment();
    return SendError(sock, Status::InvalidArgument(
                               std::string("malformed ") +
                               MsgTypeName(frame.type) +
                               " payload: " + parse.message()));
  };

  if (static_cast<uint8_t>(frame.type) >=
      static_cast<uint8_t>(MsgType::kOk)) {
    protocol_errors_->Increment();
    *close_conn = true;
    return SendError(sock, Status::InvalidArgument(
                               std::string("response-type frame ") +
                               MsgTypeName(frame.type) + " sent as request"));
  }

  if (!conn->helloed && frame.type != MsgType::kHello) {
    return SendError(
        sock, Status::InvalidArgument(std::string("HELLO required before ") +
                                      MsgTypeName(frame.type)));
  }

  Reader r(frame.payload);
  switch (frame.type) {
    case MsgType::kHello: {
      if (conn->helloed) {
        return SendError(sock, Status::InvalidArgument("duplicate HELLO"));
      }
      uint32_t version = 0;
      std::string client_name;
      uint64_t client_term = 0;
      Status parsed = [&]() -> Status {
        CCDB_ASSIGN_OR_RETURN(version, r.GetU32());
        CCDB_ASSIGN_OR_RETURN(client_name, r.GetString());
        // Trailing term is optional (a bare v2 HELLO reads as term 0) so
        // hand-built handshakes stay valid.
        if (r.remaining() >= 8) {
          CCDB_ASSIGN_OR_RETURN(client_term, r.GetU64());
        }
        return Status::OK();
      }();
      if (!parsed.ok()) return bad_payload(parsed);
      if (version != kProtocolVersion) {
        *close_conn = true;
        if (options_.event_log != nullptr) {
          obs::Event event;
          event.type = "hello_skew";
          event.detail = "client '" + client_name + "' speaks version " +
                         std::to_string(version) + ", server speaks " +
                         std::to_string(kProtocolVersion);
          options_.event_log->Emit(event);
        }
        return SendError(
            sock, Status::Unsupported(
                      "protocol version " + std::to_string(version) +
                      " (server speaks " + std::to_string(kProtocolVersion) +
                      ")"));
      }
      const uint64_t term = term_.load(std::memory_order_acquire);
      const bool read_only = read_only_.load(std::memory_order_acquire);
      if (!read_only && client_term > term) {
        // Fencing: the client has followed a newer leader; this writable
        // server is a revived stale leader and must not accept its writes.
        *close_conn = true;
        if (options_.event_log != nullptr) {
          obs::Event event;
          event.type = "stale_leader";
          event.detail = "client '" + client_name + "' knows term " +
                         std::to_string(client_term) +
                         ", this leader serves term " + std::to_string(term);
          options_.event_log->Emit(event);
        }
        return SendError(
            sock, Status::FailedPrecondition(
                      "stale leader term " + std::to_string(term) +
                      " (client has seen term " + std::to_string(client_term) +
                      ")"));
      }
      conn->session = service_->OpenSession();
      conn->helloed = true;
      Writer w;
      w.PutU32(kProtocolVersion);
      w.PutU8(read_only ? 1 : 0);
      w.PutU64(conn->session);
      w.PutString(options_.server_name);
      w.PutU64(term);
      return reply(MsgType::kHelloOk, w.buffer());
    }

    case MsgType::kQuery: {
      std::string script;
      service::QueryOptions opts;
      Status parsed = [&]() -> Status {
        CCDB_ASSIGN_OR_RETURN(script, r.GetString());
        return GetQueryOptions(&r, &opts);
      }();
      if (!parsed.ok()) return bad_payload(parsed);
      Result<service::QueryResponse> result =
          service_->Execute(conn->session, script, std::move(opts));
      if (!result.ok()) return SendError(sock, result.status());
      Writer w;
      PutQueryResponse(&w, *result);
      return reply(MsgType::kResult, w.buffer());
    }

    case MsgType::kSubmit: {
      std::string script;
      service::QueryOptions opts;
      Status parsed = [&]() -> Status {
        CCDB_ASSIGN_OR_RETURN(script, r.GetString());
        return GetQueryOptions(&r, &opts);
      }();
      if (!parsed.ok()) return bad_payload(parsed);
      Result<service::Submission> submitted =
          service_->Submit(conn->session, std::move(script), std::move(opts));
      if (!submitted.ok()) return SendError(sock, submitted.status());
      conn->pending[submitted->query_id] = std::move(submitted->future);
      Writer w;
      w.PutU64(submitted->query_id);
      return reply(MsgType::kSubmitted, w.buffer());
    }

    case MsgType::kWait: {
      Result<uint64_t> id = r.GetU64();
      if (!id.ok()) return bad_payload(id.status());
      auto it = conn->pending.find(*id);
      if (it == conn->pending.end()) {
        return SendError(
            sock, Status::NotFound("query id " + std::to_string(*id) +
                                   " is not pending on this connection"));
      }
      std::future<Result<service::QueryResponse>> future =
          std::move(it->second);
      conn->pending.erase(it);
      Result<service::QueryResponse> result = future.get();
      if (!result.ok()) return SendError(sock, result.status());
      Writer w;
      PutQueryResponse(&w, *result);
      return reply(MsgType::kResult, w.buffer());
    }

    case MsgType::kCancel: {
      Result<uint64_t> id = r.GetU64();
      if (!id.ok()) return bad_payload(id.status());
      Status cancelled = service_->Cancel(conn->session, *id);
      if (!cancelled.ok()) return SendError(sock, cancelled);
      return reply(MsgType::kOk, {});
    }

    case MsgType::kCheckpoint: {
      if (read_only_.load(std::memory_order_acquire)) {
        return SendError(sock,
                         Status::Unavailable("read-only replica: CHECKPOINT "
                                             "must run on the leader")
                             .WithRetryAfter(50));
      }
      Status checkpointed = service_->Checkpoint();
      if (!checkpointed.ok()) return SendError(sock, checkpointed);
      return reply(MsgType::kOk, {});
    }

    case MsgType::kMetrics: {
      Writer w;
      w.PutString(MetricsText());
      return reply(MsgType::kMetricsText, w.buffer());
    }

    case MsgType::kFetchTrace: {
      std::string script;
      service::QueryOptions opts;
      Status parsed = [&]() -> Status {
        CCDB_ASSIGN_OR_RETURN(script, r.GetString());
        return GetQueryOptions(&r, &opts);
      }();
      if (!parsed.ok()) return bad_payload(parsed);
      Result<service::TraceReport> report =
          service_->Trace(conn->session, script, std::move(opts));
      if (!report.ok()) return SendError(sock, report.status());
      Writer w;
      w.PutString(report->plan_text);
      w.PutU64(report->trace_id);
      PutTraceNode(&w, report->root);
      PutQueryResponse(&w, report->response);
      return reply(MsgType::kTraceTree, w.buffer());
    }

    case MsgType::kMetricsSnapshot: {
      Writer w;
      PutRegistrySnapshot(&w, MergedSnapshot());
      return reply(MsgType::kMetricsSnapshotData, w.buffer());
    }

    case MsgType::kListRelations: {
      const std::vector<std::string> names =
          service_->VisibleNames(conn->session);
      Writer w;
      w.PutU32(static_cast<uint32_t>(names.size()));
      for (const std::string& name : names) w.PutString(name);
      return reply(MsgType::kNameList, w.buffer());
    }

    case MsgType::kGetRelation: {
      Result<std::string> name = r.GetString();
      if (!name.ok()) return bad_payload(name.status());
      Result<Relation> relation = service_->GetRelation(conn->session, *name);
      if (!relation.ok()) return SendError(sock, relation.status());
      Writer w;
      PutRelation(&w, *relation);
      return reply(MsgType::kRelationData, w.buffer());
    }

    case MsgType::kLoadRelation: {
      if (read_only_.load(std::memory_order_acquire)) {
        return SendError(sock, Status::Unavailable(
                                   "read-only replica: writes must go to "
                                   "the leader")
                                   .WithRetryAfter(50));
      }
      std::string name;
      Relation relation;
      Status parsed = [&]() -> Status {
        CCDB_ASSIGN_OR_RETURN(name, r.GetString());
        return GetRelation(&r, &relation);
      }();
      if (!parsed.ok()) return bad_payload(parsed);
      // Session-scoped: a load inside the client's BEGIN...COMMIT stages
      // with the transaction instead of autocommitting past it.
      Status loaded =
          service_->ReplaceRelation(conn->session, name, std::move(relation));
      if (!loaded.ok()) return SendError(sock, loaded);
      return reply(MsgType::kOk, {});
    }

    case MsgType::kPromote: {
      if (!read_only_.load(std::memory_order_acquire)) {
        // Already the leader: echo the current term (idempotent — the
        // client that retried a PROMOTE after a lost ack sees success).
        Writer w;
        w.PutU64(term_.load(std::memory_order_acquire));
        return reply(MsgType::kPromoted, w.buffer());
      }
      if (!options_.promote_handler) {
        return SendError(sock, Status::Unavailable(
                                   "this replica has no promotion handler "
                                   "attached"));
      }
      Result<Promotion> promoted = options_.promote_handler();
      if (!promoted.ok()) return SendError(sock, promoted.status());
      Promote(promoted->term, promoted->store);
      Writer w;
      w.PutU64(promoted->term);
      return reply(MsgType::kPromoted, w.buffer());
    }

    case MsgType::kShipWal: {
      Result<uint64_t> from_lsn = r.GetU64();
      if (!from_lsn.ok()) return bad_payload(from_lsn.status());
      return HandleShipWal(sock, *from_lsn);
    }

    default:
      // Unreachable: IsKnownMsgType gated the type byte and responses
      // were rejected above.
      protocol_errors_->Increment();
      *close_conn = true;
      return SendError(sock, Status::Internal("unhandled request type"));
  }
}

Status Server::SendSnapshot(Socket* sock) {
  Result<DurableStore::ReplicationSnapshot> snapshot =
      store_.load(std::memory_order_acquire)->SnapshotForReplica();
  if (!snapshot.ok()) return SendError(sock, snapshot.status());
  const size_t image_bytes = snapshot->pages.size() * kPageSize;
  if (image_bytes + 64 > kMaxFramePayload) {
    return SendError(sock, Status::ResourceExhausted(
                               "snapshot of " +
                               std::to_string(snapshot->pages.size()) +
                               " pages exceeds the frame bound"));
  }
  Writer w;
  w.PutU64(snapshot->next_lsn);
  w.PutU64(snapshot->catalog_root);
  w.PutU32(static_cast<uint32_t>(snapshot->pages.size()));
  for (const Page& page : snapshot->pages) {
    w.PutBytes(page.data.data(), kPageSize);
  }
  w.PutU64(term_.load(std::memory_order_acquire));
  ship_snapshots_->Increment();
  uint64_t sent = 0;
  Status out = WriteFrame(sock, MsgType::kSnapshot, w.buffer(), &sent);
  bytes_out_->Add(sent);
  return out;
}

Status Server::HandleShipWal(Socket* sock, uint64_t from_lsn) {
  DurableStore* store = store_.load(std::memory_order_acquire);
  if (store == nullptr) {
    return SendError(sock, Status::Unavailable(
                               "no durable store attached: this server "
                               "cannot ship its WAL"));
  }
  if (from_lsn == 0) return SendSnapshot(sock);

  std::vector<std::vector<uint8_t>> records;
  uint64_t next_lsn = 0;
  Status read = store->ReadShipment(from_lsn, &records, &next_lsn);
  if (read.code() == StatusCode::kOutOfRange) {
    // The log no longer covers the follower's position (a checkpoint
    // truncated it, or the follower is from another timeline): the only
    // correct answer is a fresh bootstrap image.
    return SendSnapshot(sock);
  }
  if (!read.ok()) return SendError(sock, read);

  // Fault injection (tests): each shipped record has a server-lifetime
  // 1-based sequence number the fault indexes match against.
  const ShipFaults& faults = options_.ship_faults;
  std::vector<std::vector<uint8_t>*> to_send;
  to_send.reserve(records.size());
  for (std::vector<uint8_t>& record : records) to_send.push_back(&record);
  bool cut = false;
  for (size_t i = 0; i < to_send.size(); ++i) {
    const uint64_t seq = ship_seq_.fetch_add(1) + 1;
    if (faults.drop_at == seq) {
      to_send.erase(to_send.begin() + static_cast<ptrdiff_t>(i));
      --i;
      continue;
    }
    if (faults.cut_at == seq) {
      // Leader "crash" mid-shipment: everything from this batch on is
      // lost and the connection dies without a SHIP_END.
      to_send.resize(i);
      cut = true;
      break;
    }
    if (faults.truncate_at == seq) {
      to_send[i]->resize(to_send[i]->size() / 2);
    }
    if (faults.corrupt_at == seq && !to_send[i]->empty()) {
      (*to_send[i])[to_send[i]->size() / 2] ^= 0x5a;
    }
    if (faults.delay_at == seq && faults.delay_ms > 0) {
      SleepForMs(faults.delay_ms);
    }
    if (faults.reorder_at == seq && i + 1 < to_send.size()) {
      std::swap(to_send[i], to_send[i + 1]);
    }
  }

  for (const std::vector<uint8_t>* record : to_send) {
    ship_batches_->Increment();
    uint64_t sent = 0;
    Status wrote = WriteFrame(sock, MsgType::kWalBatch, *record, &sent);
    bytes_out_->Add(sent);
    CCDB_RETURN_IF_ERROR(wrote);
  }
  if (cut) {
    sock->ShutdownBoth();
    return Status::Unavailable("ship cut by fault injection");
  }
  Writer w;
  w.PutU64(next_lsn);
  w.PutU64(term_.load(std::memory_order_acquire));
  uint64_t sent = 0;
  Status out = WriteFrame(sock, MsgType::kShipEnd, w.buffer(), &sent);
  bytes_out_->Add(sent);
  return out;
}

}  // namespace ccdb::net
