#ifndef CCDB_NET_STATUS_SERVER_H_
#define CCDB_NET_STATUS_SERVER_H_

/// \file status_server.h
/// A tiny HTTP/1.0 status listener: the scrape surface for fleet tooling.
///
/// `StatusServer` serves exactly two read-only paths over plain HTTP so
/// Prometheus, curl, and shell scripts can watch a `ccdb_serve` process
/// without speaking the binary protocol:
///
///  - `GET /metrics`  — the Prometheus text exposition of the wire
///    server's merged snapshot (service registry + `net.*` registry),
///    plus the `ccdb_build_info` identity sample.
///  - `GET /healthz`  — one JSON object with the process role
///    (`leader` | `replica`), catalog epoch, WAL position, and — on a
///    replica — the live lag figures straight from `Replica::stats()`.
///
/// The protocol handling is deliberately minimal and defensive: requests
/// are read through byte-capped `RecvSome` calls (`kMaxRequestBytes`);
/// an oversize or malformed request gets `400`, a non-GET method `405`,
/// an unknown path `404`, and every response carries
/// `Connection: close` followed by an orderly close — no keep-alive, no
/// chunking, no request body support. Each accepted connection is served
/// by its own short-lived thread so a stalled scraper can never wedge
/// the accept loop; both servers accept and drain through net/listener.h.

#include <cstdint>
#include <memory>
#include <string>

#include "net/listener.h"
#include "net/replica.h"
#include "net/server.h"
#include "util/socket.h"
#include "util/status.h"

namespace ccdb::net {

/// Construction-time knobs of a StatusServer.
struct StatusServerOptions {
  uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  /// Optional replica whose lag rides `/healthz`; its presence is what
  /// flips the advertised role to "replica". Not owned; must outlive the
  /// status server.
  Replica* replica = nullptr;
};

/// The HTTP status listener over one wire `Server`. All public methods
/// are thread-safe.
class StatusServer {
 public:
  /// Requests larger than this (anywhere before the blank line ending
  /// the header block) are answered `400` and closed.
  static constexpr size_t kMaxRequestBytes = 4096;

  /// Binds, then starts the accept loop. `server` (not owned) provides
  /// the scrape snapshot and must outlive the status server.
  static Result<std::unique_ptr<StatusServer>> Start(
      Server* server, StatusServerOptions options = {});

  /// Graceful drain (equivalent to Shutdown()).
  ~StatusServer() { Shutdown(); }

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// The bound port (stable after Start).
  uint16_t port() const { return listener_.port(); }

  /// Stops accepting, unblocks and joins every connection thread.
  /// Idempotent.
  void Shutdown() { listener_.Shutdown(); }

 private:
  StatusServer(Server* server, StatusServerOptions options);

  /// Reads one request, writes one response, half-closes.
  void ServeConnection(uint64_t conn_id, Socket* sock);

  /// Builds the full response bytes for one request head (everything up
  /// to and including the blank line). Never fails: protocol problems
  /// become 4xx responses.
  std::string RespondTo(const std::string& request_head) const;
  std::string MetricsBody() const;
  std::string HealthzBody() const;

  Server* server_;
  StatusServerOptions options_;
  ConnectionListener listener_;  ///< last: drained before the rest dies
};

}  // namespace ccdb::net

#endif  // CCDB_NET_STATUS_SERVER_H_
