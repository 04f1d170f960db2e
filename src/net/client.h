#ifndef CCDB_NET_CLIENT_H_
#define CCDB_NET_CLIENT_H_

/// \file client.h
/// The blocking client library for the CCDB wire protocol.
///
/// One `Client` is one connection and therefore one server-side session:
/// step results (`R0 = ...`) persist across calls and queries issued
/// through one client are serialized in program order, exactly like an
/// in-process `QueryService` session. Every method is a blocking RPC
/// returning the server's `Status` verbatim — a governance shed arrives
/// as `kUnavailable` with its `retry_after_ms()` hint intact, a deadline
/// trip as `kDeadlineExceeded`, and so on — so remote and in-process
/// callers are written identically.
///
/// Calls are serialized on an internal mutex (the protocol is strict
/// request/response per connection); use one Client per thread for
/// parallelism. Any stream failure poisons the connection (every later
/// call fails fast), but the status CODE tells the caller what a fresh
/// connection would buy: transport failures — the peer vanished, a clean
/// EOF, a recv timeout, a torn frame — surface as the *retryable*
/// kUnavailable, while protocol failures — CRC mismatch, version skew,
/// an out-of-phase response stream — surface as the *fatal*
/// kInvalidArgument / kUnsupported (`Client::Retryable` encodes the
/// taxonomy). `ResilientClient` builds reconnect-and-retry on exactly
/// this split.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.h"
#include "service/query_service.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/socket.h"
#include "util/status.h"

namespace ccdb::net {

/// Construction-time knobs of a Client.
struct ClientOptions {
  std::string client_name = "ccdb-client";
  /// Highest leader term this client has observed (0 = none). Carried in
  /// HELLO; a *writable* server whose own term is older refuses the
  /// handshake with kFailedPrecondition — the fencing that stops a
  /// revived stale leader from accepting writes from clients that
  /// already followed a promotion.
  uint64_t known_term = 0;
};

/// A blocking wire-protocol client. Thread-safe; calls serialize.
class Client {
 public:
  /// Connects and performs the HELLO handshake.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port,
                                                 ClientOptions options = {});

  ~Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Query execution ---

  /// Executes a step-script on the server (QUERY).
  Result<service::QueryResponse> Execute(const std::string& script,
                                         const service::QueryOptions& opts = {})
      CCDB_EXCLUDES(mu_);

  /// Enqueues a script (SUBMIT); returns the query id to Wait/Cancel by.
  Result<uint64_t> Submit(const std::string& script,
                          const service::QueryOptions& opts = {})
      CCDB_EXCLUDES(mu_);

  /// Blocks until a SUBMITted query finishes (WAIT).
  Result<service::QueryResponse> Wait(uint64_t query_id) CCDB_EXCLUDES(mu_);

  /// Requests cancellation of a SUBMITted query (CANCEL).
  Status Cancel(uint64_t query_id) CCDB_EXCLUDES(mu_);

  // --- Admin / observability ---

  Status Checkpoint() CCDB_EXCLUDES(mu_);
  Result<std::string> MetricsText() CCDB_EXCLUDES(mu_);

  /// PROMOTE: asks a replica server to become the leader and returns the
  /// new leader term. Idempotent against an already-writable server (it
  /// echoes its current term). The client's own notion of the server's
  /// term is updated on success.
  Result<uint64_t> Promote() CCDB_EXCLUDES(mu_);

  /// FETCH_TRACE: the server-side EXPLAIN ANALYZE view of one script,
  /// run under `opts` (deadline, budgets, the client-assigned trace id)
  /// like Execute. The span tree arrives structured (every TraceNode
  /// field), so a shell's `\trace` over `\connect` renders and aggregates
  /// the remote tree exactly like a local one.
  struct RemoteTraceTree {
    std::string plan_text;
    uint64_t trace_id = 0;   ///< echoed back by the server
    obs::TraceNode root;
    service::QueryResponse response;
  };
  Result<RemoteTraceTree> FetchTrace(const std::string& script,
                                     const service::QueryOptions& opts = {})
      CCDB_EXCLUDES(mu_);

  /// METRICS_SNAPSHOT: the server's merged service+net registry snapshot
  /// (counter kinds and full histogram buckets) — the structured scrape
  /// the shell's `\top` polls.
  Result<obs::MetricsRegistry::Snapshot> MetricsSnapshot()
      CCDB_EXCLUDES(mu_);

  // --- Catalog access ---

  Result<std::vector<std::string>> ListRelations() CCDB_EXCLUDES(mu_);
  Result<Relation> GetRelation(const std::string& name) CCDB_EXCLUDES(mu_);
  Status LoadRelation(const std::string& name, const Relation& relation)
      CCDB_EXCLUDES(mu_);

  // --- Replication (follower side; used by net::Replica) ---

  /// One SHIP_WAL round: either a stream of raw committed batch records
  /// (`records`) or a full bootstrap snapshot, plus the leader's next
  /// LSN (what to ask for next).
  struct Shipment {
    bool is_snapshot = false;
    DurableStore::ReplicationSnapshot snapshot;  ///< when is_snapshot
    std::vector<std::vector<uint8_t>> records;   ///< otherwise
    uint64_t leader_next_lsn = 0;
    uint64_t leader_term = 0;  ///< the shipping server's leader term
  };
  Result<Shipment> ShipWal(uint64_t from_lsn) CCDB_EXCLUDES(mu_);

  // --- Connection state ---

  /// True when the server declared itself a read-only replica at HELLO.
  bool server_read_only() const { return server_read_only_; }
  const std::string& server_name() const { return server_name_; }
  uint64_t session_id() const { return session_id_; }

  /// The server's leader term as of the last frame that carried one
  /// (HELLO_OK, SHIP_END, SNAPSHOT, PROMOTED).
  uint64_t server_term() const {
    return server_term_.load(std::memory_order_relaxed);
  }

  /// True once a stream failure has poisoned this connection — every
  /// later call fails fast; only a fresh Connect helps. (What
  /// ResilientClient keys its reconnects on.)
  bool poisoned() const { return poisoned_.load(std::memory_order_relaxed); }

  /// The retry taxonomy: true when `status` is a transport-level failure
  /// — kUnavailable (peer closed, recv timeout, a torn frame, shedding)
  /// — where a reconnect (or plain backoff) plus retry may succeed.
  /// Protocol-fatal failures (kInvalidArgument CRC mismatch / malformed
  /// frames, kUnsupported version skew, kFailedPrecondition fencing)
  /// return false: retrying them verbatim cannot help.
  static bool Retryable(const Status& status) {
    return status.code() == StatusCode::kUnavailable;
  }

  /// Test hook: arms a deterministic fault plan on the underlying socket
  /// (the framing layer writes one contiguous buffer per frame, so send
  /// index N is frame N).
  void SetSocketFaults(const SocketFaults& faults) CCDB_EXCLUDES(mu_);

  /// Bounds every reply wait on this connection: a swallowed reply frame
  /// surfaces as the retryable kUnavailable ("recv timeout") instead of
  /// blocking forever. 0 restores unbounded waits.
  Status SetRecvTimeout(double ms) CCDB_EXCLUDES(mu_);

  /// Shuts the connection down; every later call fails with kUnavailable.
  /// Safe to call from any thread, including while another thread is
  /// blocked inside an RPC on this client — the shutdown unblocks it with
  /// a transport error. (This is how net::Replica::Stop interrupts an
  /// in-flight SHIP_WAL round; Close deliberately does NOT take mu_.)
  void Close();

 private:
  Client() = default;

  /// Sends one request and reads one response frame. A `kError` response
  /// is decoded and returned as its transported Status; a response whose
  /// type is not `expect` is a protocol error and poisons the connection.
  Result<Frame> Call(MsgType request, const std::vector<uint8_t>& payload,
                     MsgType expect) CCDB_REQUIRES(mu_);
  Status CheckLive() CCDB_REQUIRES(mu_);

  // protocol-lock: serializes whole RPCs — one request/response exchange
  // per holder — rather than guarding fields (sock_'s discipline is
  // documented below).
  mutable Mutex mu_{"net.client"};
  // Written once at Connect (before the client is shared), then used by
  // RPCs under mu_. Close() touches it WITHOUT mu_: Socket::ShutdownBoth
  // is the one operation that is safe against a concurrent blocked
  // recv/send on the same fd, and Close relies on exactly that to
  // interrupt an in-flight call. Nothing else may bypass mu_.
  Socket sock_;
  std::atomic<bool> poisoned_{false};

  // Fixed at handshake time.
  bool server_read_only_ = false;
  std::string server_name_;
  uint64_t session_id_ = 0;
  /// Latest leader term seen on this connection (atomic: ShipWal updates
  /// it under mu_ while server_term() reads it from other threads).
  std::atomic<uint64_t> server_term_{0};
};

}  // namespace ccdb::net

#endif  // CCDB_NET_CLIENT_H_
