#ifndef CCDB_NET_SERVER_H_
#define CCDB_NET_SERVER_H_

/// \file server.h
/// The wire-protocol front door: a TCP server over a QueryService.
///
/// `Server` binds a listening socket and maps each accepted connection
/// onto one `QueryService` session served by a dedicated thread. The
/// connection thread parses frames (`net/wire.h`), dispatches them, and
/// streams responses back. A QUERY or FETCH_TRACE runs on the connection
/// thread itself when the service has a slot free and waits for a worker
/// otherwise; a SUBMIT always goes to a worker. Either way a slow query
/// holds only its own connection's protocol loop. Every service-level
/// failure crosses the wire as a `kError` frame carrying the full
/// `Status` — code, message, and `retry_after_ms()` — so a client sees
/// governance shedding exactly as an in-process caller does.
///
/// Protocol errors (oversized length, unknown type, CRC mismatch, torn
/// frame) never crash or wedge the server: the connection gets a
/// best-effort `kError` and is closed, its session reclaimed.
///
/// With a `DurableStore` attached, the server is also a *replication
/// leader*: `SHIP_WAL from_lsn` answers with either the committed raw WAL
/// batch records from that LSN on (a stream of `kWalBatch` frames ending
/// in `kShipEnd`) or — when the log can no longer serve it, or
/// `from_lsn` is 0 — a full `kSnapshot` bootstrap image. `ShipFaults`
/// injects dropped / truncated / corrupted / reordered shipments for
/// re-sync testing.
///
/// The server also carries the *leader term* — a monotone epoch number
/// that fences a revived stale leader: every HELLO_OK / SHIP_END /
/// SNAPSHOT frame announces the server's term, clients echo the highest
/// term they have seen back in HELLO, and a *writable* server whose own
/// term is older refuses the handshake with kFailedPrecondition. A
/// `PROMOTE` request flips a read-only front-end into a writable leader
/// under a new term via the attached `promote_handler` (usually
/// `Replica::Promote`).
///
/// Shutdown() is a graceful drain by the `ConnectionListener` both servers
/// share (net/listener.h): stop accepting, shut down every live
/// connection's socket, join all threads; each closes its session.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/listener.h"
#include "net/wire.h"
#include "obs/event_log.h"
#include "obs/registry.h"
#include "service/query_service.h"
#include "storage/wal.h"
#include "util/socket.h"
#include "util/status.h"

namespace ccdb::net {

/// Shipping fault injection (tests): 1-based indexes into the
/// server-lifetime sequence of shipped batch records; 0 disables. Each
/// fires once.
struct ShipFaults {
  uint64_t drop_at = 0;      ///< silently omit the Nth shipped batch
  uint64_t truncate_at = 0;  ///< ship only the first half of its bytes
  uint64_t corrupt_at = 0;   ///< flip one byte of its body
  uint64_t reorder_at = 0;   ///< swap it with the next batch (same shipment)
  /// Cut the connection instead of shipping the Nth batch — the leader
  /// "crashes" mid-shipment (the follower sees a torn stream).
  uint64_t cut_at = 0;
  uint64_t delay_at = 0;     ///< stall before shipping the Nth batch...
  double delay_ms = 0;       ///< ...for this long
};

/// What a successful promotion hands the server: the new leader term and
/// the (freshly writable) durable store to serve writes from.
struct Promotion {
  uint64_t term = 0;
  DurableStore* store = nullptr;  ///< not owned; must outlive the server
};

/// Construction-time knobs of a Server.
struct ServerOptions {
  uint16_t port = 0;          ///< 0 = ephemeral (read back via port())
  size_t max_connections = 64;  ///< over this: kUnavailable refusal; 0 = no cap
  /// Refuse catalog writes and checkpoints (kUnavailable) — the follower
  /// front-end of a read replica.
  bool read_only = false;
  /// Optional durable store; enables SHIP_WAL (the leader side of
  /// replication). Not owned; must outlive the server.
  DurableStore* store = nullptr;
  std::string server_name = "ccdb";
  /// The leader term this server starts at. Leaders default to 1;
  /// replica front-ends conventionally start at 0 and learn their real
  /// term at promotion.
  uint64_t term = 1;
  /// Invoked by a PROMOTE request against a read-only server; performs
  /// the actual catch-up + store reopen (usually `Replica::Promote`) and
  /// returns the new term and writable store. Absent → PROMOTE answers
  /// kUnavailable.
  std::function<Result<Promotion>()> promote_handler;
  ShipFaults ship_faults;     ///< replication fault injection (tests)
  /// Optional structured event log receiving connection open/close and
  /// HELLO version-skew events. Not owned; must outlive the server.
  obs::EventLog* event_log = nullptr;
};

/// A TCP server exposing one QueryService over the binary wire protocol.
/// All public methods are thread-safe.
class Server {
 public:
  /// Binds, then starts the accept loop. `service` is not owned and must
  /// outlive the server.
  static Result<std::unique_ptr<Server>> Start(service::QueryService* service,
                                               ServerOptions options = {});

  /// Graceful drain (equivalent to Shutdown()).
  ~Server() { Shutdown(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (stable after Start).
  uint16_t port() const { return listener_.port(); }

  /// The current leader term this server serves under.
  uint64_t term() const { return term_.load(std::memory_order_acquire); }

  /// True while this server refuses writes (replica front-end).
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// Flips this server into a writable leader serving under `term` from
  /// `store` (not owned; must outlive the server). Normally reached via
  /// the wire PROMOTE request, but callable directly (`\promote` against
  /// an embedded server). Idempotent once writable.
  void Promote(uint64_t term, DurableStore* store);

  /// Stops accepting, unblocks and joins every connection thread, closes
  /// their sessions. Idempotent.
  void Shutdown() { listener_.Shutdown(); }

  /// Connections currently being served.
  size_t open_connections() const { return listener_.open(); }

  /// The `\metrics` rendering: service metrics followed by the server's
  /// own `net.*` registry dump.
  std::string MetricsText() const;

  /// The `net.*` metrics; each scrape refreshes `net.connections.open`.
  obs::MetricsRegistry& registry() { return registry_; }

  /// The scrape surface: the service's registry snapshot (health gauges
  /// included) merged with this server's `net.*` registry, values
  /// re-sorted. Both the binary METRICS_SNAPSHOT response and the HTTP
  /// `/metrics` endpoint render exactly this.
  obs::MetricsRegistry::Snapshot MergedSnapshot() const;

 private:
  Server(service::QueryService* service, ServerOptions options);

  /// Serves one connection until EOF, protocol error, or drain.
  void ServeConnection(uint64_t conn_id, Socket* sock);

  /// Per-connection protocol state.
  struct Conn {
    service::SessionId session = 0;
    bool helloed = false;
    /// SUBMITted queries not yet WAITed on.
    std::map<uint64_t, std::future<Result<service::QueryResponse>>> pending;
  };

  /// Dispatches one request frame; `*close_conn` asks the caller to end
  /// the connection after the reply. A non-OK return means the reply
  /// could not be sent (socket gone) — the loop exits.
  Status Dispatch(Conn* conn, Socket* sock, const Frame& frame,
                  bool* close_conn);
  Status SendError(Socket* sock, const Status& error);
  Status HandleShipWal(Socket* sock, uint64_t from_lsn);
  Status SendSnapshot(Socket* sock);

  service::QueryService* service_;
  ServerOptions options_;

  // Failover state: all three flip together at Promote(). Atomics (not
  // options_ reads) so connection threads observe the flip without locks.
  std::atomic<uint64_t> term_{1};
  std::atomic<bool> read_only_{false};
  std::atomic<DurableStore*> store_{nullptr};

  /// Server-lifetime count of shipped batch records (fault-injection
  /// indexes are matched against it).
  std::atomic<uint64_t> ship_seq_{0};

  mutable obs::MetricsRegistry registry_;
  obs::Counter* conns_total_;
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
  obs::Counter* frames_in_;
  obs::Counter* protocol_errors_;
  obs::Counter* ship_batches_;
  obs::Counter* ship_snapshots_;
  ConnectionListener listener_;  ///< last: drained before the rest dies
};

}  // namespace ccdb::net

#endif  // CCDB_NET_SERVER_H_
