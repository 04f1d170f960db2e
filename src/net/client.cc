#include "net/client.h"

#include <utility>

#include "storage/serde.h"

namespace ccdb::net {

namespace {

/// The retry taxonomy at the transport boundary: a failure from the
/// socket layer that is not already typed as a protocol error becomes
/// the retryable kUnavailable (a fresh connection may succeed), keeping
/// the original diagnosis in the message. Typed protocol errors
/// (kInvalidArgument and friends) pass through — they are fatal.
Status ClassifyTransport(Status status) {
  if (status.code() == StatusCode::kIoError) {
    Status out = Status::Unavailable(status.message());
    return out;
  }
  return status;
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                ClientOptions options) {
  auto client = std::unique_ptr<Client>(new Client());
  {
    MutexLock lock(client->mu_);
    Result<Socket> sock = TcpConnect(host, port);
    if (!sock.ok()) return ClassifyTransport(sock.status());
    client->sock_ = std::move(sock).value();
    Writer w;
    w.PutU32(kProtocolVersion);
    w.PutString(options.client_name);
    w.PutU64(options.known_term);
    CCDB_ASSIGN_OR_RETURN(
        Frame reply,
        client->Call(MsgType::kHello, w.buffer(), MsgType::kHelloOk));
    Reader r(reply.payload);
    CCDB_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
    CCDB_ASSIGN_OR_RETURN(uint8_t read_only, r.GetU8());
    CCDB_ASSIGN_OR_RETURN(client->session_id_, r.GetU64());
    CCDB_ASSIGN_OR_RETURN(client->server_name_, r.GetString());
    CCDB_ASSIGN_OR_RETURN(uint64_t term, r.GetU64());
    if (version != kProtocolVersion || read_only > 1) {
      return Status::InvalidArgument("malformed HELLO_OK");
    }
    client->server_read_only_ = read_only != 0;
    client->server_term_.store(term, std::memory_order_relaxed);
  }
  return client;
}

void Client::Close() {
  // No mu_ here on purpose: a caller blocked inside an RPC holds mu_
  // while parked in recv, and Close must still be able to unblock it.
  // ShutdownBoth leaves the fd open (the destructor closes it), so the
  // blocked reader wakes with a transport error instead of racing a
  // reused descriptor.
  poisoned_.store(true, std::memory_order_relaxed);
  sock_.ShutdownBoth();
}

Status Client::CheckLive() {
  mu_.AssertHeld();
  if (poisoned_ || !sock_.valid()) {
    return Status::Unavailable("connection is closed");
  }
  return Status::OK();
}

Result<Frame> Client::Call(MsgType request,
                           const std::vector<uint8_t>& payload,
                           MsgType expect) {
  mu_.AssertHeld();
  CCDB_RETURN_IF_ERROR(CheckLive());
  Status sent = WriteFrame(&sock_, request, payload);
  if (!sent.ok()) {
    poisoned_ = true;
    return ClassifyTransport(std::move(sent));
  }
  Frame reply;
  Status read = ReadFrame(&sock_, &reply);
  if (!read.ok()) {
    poisoned_ = true;
    // Torn frame / peer closed / recv timeout → retryable kUnavailable;
    // CRC mismatch and unknown-type stay kInvalidArgument — fatal.
    return ClassifyTransport(std::move(read));
  }
  if (reply.type == MsgType::kError) {
    Status transported = Status::OK();
    Status decoded = DecodeErrorPayload(reply.payload, &transported);
    if (!decoded.ok() || transported.ok()) {
      poisoned_ = true;
      return Status::InvalidArgument("malformed error frame from server");
    }
    return transported;
  }
  if (reply.type != expect) {
    // The stream is out of phase; nothing later can be trusted, and a
    // blind retry would desynchronize again — fatal, not retryable.
    poisoned_ = true;
    return Status::InvalidArgument(std::string("unexpected response frame ") +
                                   MsgTypeName(reply.type) + " (wanted " +
                                   MsgTypeName(expect) + ")");
  }
  return reply;
}

Result<service::QueryResponse> Client::Execute(
    const std::string& script, const service::QueryOptions& opts) {
  MutexLock lock(mu_);
  Writer w;
  w.PutString(script);
  PutQueryOptions(&w, opts);
  CCDB_ASSIGN_OR_RETURN(Frame reply,
                        Call(MsgType::kQuery, w.buffer(), MsgType::kResult));
  Reader r(reply.payload);
  service::QueryResponse response;
  CCDB_RETURN_IF_ERROR(GetQueryResponse(&r, &response));
  return response;
}

Result<uint64_t> Client::Submit(const std::string& script,
                                const service::QueryOptions& opts) {
  MutexLock lock(mu_);
  Writer w;
  w.PutString(script);
  PutQueryOptions(&w, opts);
  CCDB_ASSIGN_OR_RETURN(
      Frame reply, Call(MsgType::kSubmit, w.buffer(), MsgType::kSubmitted));
  Reader r(reply.payload);
  return r.GetU64();
}

Result<service::QueryResponse> Client::Wait(uint64_t query_id) {
  MutexLock lock(mu_);
  Writer w;
  w.PutU64(query_id);
  CCDB_ASSIGN_OR_RETURN(Frame reply,
                        Call(MsgType::kWait, w.buffer(), MsgType::kResult));
  Reader r(reply.payload);
  service::QueryResponse response;
  CCDB_RETURN_IF_ERROR(GetQueryResponse(&r, &response));
  return response;
}

Status Client::Cancel(uint64_t query_id) {
  MutexLock lock(mu_);
  Writer w;
  w.PutU64(query_id);
  return Call(MsgType::kCancel, w.buffer(), MsgType::kOk).status();
}

Status Client::Checkpoint() {
  MutexLock lock(mu_);
  return Call(MsgType::kCheckpoint, {}, MsgType::kOk).status();
}

Result<uint64_t> Client::Promote() {
  MutexLock lock(mu_);
  CCDB_ASSIGN_OR_RETURN(Frame reply,
                        Call(MsgType::kPromote, {}, MsgType::kPromoted));
  Reader r(reply.payload);
  CCDB_ASSIGN_OR_RETURN(uint64_t term, r.GetU64());
  server_term_.store(term, std::memory_order_relaxed);
  server_read_only_ = false;
  return term;
}

void Client::SetSocketFaults(const SocketFaults& faults) {
  MutexLock lock(mu_);
  sock_.SetFaults(faults);
}

Status Client::SetRecvTimeout(double ms) {
  MutexLock lock(mu_);
  return sock_.SetRecvTimeout(ms);
}

Result<std::string> Client::MetricsText() {
  MutexLock lock(mu_);
  CCDB_ASSIGN_OR_RETURN(Frame reply,
                        Call(MsgType::kMetrics, {}, MsgType::kMetricsText));
  Reader r(reply.payload);
  return r.GetString();
}

Result<Client::RemoteTraceTree> Client::FetchTrace(
    const std::string& script, const service::QueryOptions& opts) {
  MutexLock lock(mu_);
  Writer w;
  w.PutString(script);
  PutQueryOptions(&w, opts);
  CCDB_ASSIGN_OR_RETURN(
      Frame reply,
      Call(MsgType::kFetchTrace, w.buffer(), MsgType::kTraceTree));
  Reader r(reply.payload);
  RemoteTraceTree trace;
  CCDB_ASSIGN_OR_RETURN(trace.plan_text, r.GetString());
  CCDB_ASSIGN_OR_RETURN(trace.trace_id, r.GetU64());
  CCDB_RETURN_IF_ERROR(GetTraceNode(&r, &trace.root));
  CCDB_RETURN_IF_ERROR(GetQueryResponse(&r, &trace.response));
  return trace;
}

Result<obs::MetricsRegistry::Snapshot> Client::MetricsSnapshot() {
  MutexLock lock(mu_);
  CCDB_ASSIGN_OR_RETURN(
      Frame reply,
      Call(MsgType::kMetricsSnapshot, {}, MsgType::kMetricsSnapshotData));
  Reader r(reply.payload);
  obs::MetricsRegistry::Snapshot snapshot;
  CCDB_RETURN_IF_ERROR(GetRegistrySnapshot(&r, &snapshot));
  return snapshot;
}

Result<std::vector<std::string>> Client::ListRelations() {
  MutexLock lock(mu_);
  CCDB_ASSIGN_OR_RETURN(
      Frame reply, Call(MsgType::kListRelations, {}, MsgType::kNameList));
  Reader r(reply.payload);
  CCDB_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  std::vector<std::string> names;
  names.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    CCDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
    names.push_back(std::move(name));
  }
  return names;
}

Result<Relation> Client::GetRelation(const std::string& name) {
  MutexLock lock(mu_);
  Writer w;
  w.PutString(name);
  CCDB_ASSIGN_OR_RETURN(
      Frame reply,
      Call(MsgType::kGetRelation, w.buffer(), MsgType::kRelationData));
  Reader r(reply.payload);
  Relation relation;
  CCDB_RETURN_IF_ERROR(net::GetRelation(&r, &relation));
  return relation;
}

Status Client::LoadRelation(const std::string& name,
                            const Relation& relation) {
  MutexLock lock(mu_);
  Writer w;
  w.PutString(name);
  PutRelation(&w, relation);
  return Call(MsgType::kLoadRelation, w.buffer(), MsgType::kOk).status();
}

Result<Client::Shipment> Client::ShipWal(uint64_t from_lsn) {
  MutexLock lock(mu_);
  CCDB_RETURN_IF_ERROR(CheckLive());
  Writer w;
  w.PutU64(from_lsn);
  Status sent = WriteFrame(&sock_, MsgType::kShipWal, w.buffer());
  if (!sent.ok()) {
    poisoned_ = true;
    return ClassifyTransport(std::move(sent));
  }

  Shipment shipment;
  while (true) {
    Frame frame;
    Status read = ReadFrame(&sock_, &frame);
    if (!read.ok()) {
      poisoned_ = true;
      return ClassifyTransport(std::move(read));
    }
    switch (frame.type) {
      case MsgType::kWalBatch:
        shipment.records.push_back(std::move(frame.payload));
        continue;

      case MsgType::kShipEnd: {
        Reader r(frame.payload);
        CCDB_ASSIGN_OR_RETURN(shipment.leader_next_lsn, r.GetU64());
        CCDB_ASSIGN_OR_RETURN(shipment.leader_term, r.GetU64());
        server_term_.store(shipment.leader_term, std::memory_order_relaxed);
        return shipment;
      }

      case MsgType::kSnapshot: {
        if (!shipment.records.empty()) {
          poisoned_ = true;
          return Status::InvalidArgument("snapshot frame mid batch stream");
        }
        Reader r(frame.payload);
        DurableStore::ReplicationSnapshot snapshot;
        CCDB_ASSIGN_OR_RETURN(snapshot.next_lsn, r.GetU64());
        CCDB_ASSIGN_OR_RETURN(snapshot.catalog_root, r.GetU64());
        CCDB_ASSIGN_OR_RETURN(uint32_t n_pages, r.GetU32());
        // Page images plus the trailing u64 leader term.
        if (r.remaining() != static_cast<size_t>(n_pages) * kPageSize + 8) {
          return Status::InvalidArgument("snapshot frame size mismatch");
        }
        snapshot.pages.resize(n_pages);
        for (uint32_t i = 0; i < n_pages; ++i) {
          for (size_t b = 0; b < kPageSize; ++b) {
            CCDB_ASSIGN_OR_RETURN(snapshot.pages[i].data[b], r.GetU8());
          }
        }
        CCDB_ASSIGN_OR_RETURN(shipment.leader_term, r.GetU64());
        server_term_.store(shipment.leader_term, std::memory_order_relaxed);
        shipment.is_snapshot = true;
        shipment.snapshot = std::move(snapshot);
        shipment.leader_next_lsn = shipment.snapshot.next_lsn;
        return shipment;
      }

      case MsgType::kError: {
        Status transported = Status::OK();
        Status decoded = DecodeErrorPayload(frame.payload, &transported);
        if (!decoded.ok() || transported.ok()) {
          poisoned_ = true;
          return Status::InvalidArgument("malformed error frame from server");
        }
        return transported;
      }

      default:
        poisoned_ = true;
        return Status::InvalidArgument(
            std::string("unexpected response frame ") +
            MsgTypeName(frame.type) + " in a SHIP_WAL stream");
    }
  }
}

}  // namespace ccdb::net
