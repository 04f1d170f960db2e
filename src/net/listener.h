#ifndef CCDB_NET_LISTENER_H_
#define CCDB_NET_LISTENER_H_

/// \file listener.h
/// The connection lifecycle both TCP servers share: bind, the accept loop,
/// a thread per connection, the registry of live sockets and finished
/// threads, reaping, and the drain; a server supplies its protocol. A
/// socket registers before `serve` reads it, and a thread that starts
/// after the drain began closes its socket unserved: no socket is missed.

#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/socket.h"
#include "util/status.h"

namespace ccdb::net {

/// Serves each connection on its own thread. Thread-safe.
class ConnectionListener {
 public:
  /// Runs on the connection's own thread; the socket closes after it.
  using ServeFn = std::function<void(uint64_t conn_id, Socket* sock)>;
  /// Runs on the accept thread for a connection over the cap.
  using RefuseFn = std::function<void(Socket* sock)>;

  /// `max_connections` 0 means no cap.
  explicit ConnectionListener(size_t max_connections = 0,
                              RefuseFn refuse = nullptr)
      : max_connections_(max_connections), refuse_(std::move(refuse)) {}
  ~ConnectionListener() { Shutdown(); }
  ConnectionListener(const ConnectionListener&) = delete;
  ConnectionListener& operator=(const ConnectionListener&) = delete;

  /// Binds `port` (0 = ephemeral) and starts the accept loop. Call once.
  Status Start(uint16_t port, ServeFn serve);

  /// Stops accepting, shuts down every registered socket (unblocking its
  /// reads and writes) and joins every thread. Idempotent.
  void Shutdown() CCDB_EXCLUDES(mu_);
  uint16_t port() const { return listener_.port(); }
  /// Connections currently being served.
  size_t open() const CCDB_EXCLUDES(mu_);

 private:
  void AcceptLoop() CCDB_EXCLUDES(mu_);
  void RunConnection(uint64_t conn_id, Socket sock) CCDB_EXCLUDES(mu_);
  void ReapFinished() CCDB_EXCLUDES(mu_);

  const size_t max_connections_;
  const RefuseFn refuse_;
  ServeFn serve_;
  Listener listener_;

  mutable Mutex mu_{"net.listener"};  // a leaf
  bool stopping_ CCDB_GUARDED_BY(mu_) = false;
  uint64_t next_conn_id_ CCDB_GUARDED_BY(mu_) = 1;
  /// Sockets being served, owned by their threads' stacks.
  std::map<uint64_t, Socket*> live_ CCDB_GUARDED_BY(mu_);
  std::map<uint64_t, std::thread> threads_ CCDB_GUARDED_BY(mu_);
  std::vector<uint64_t> finished_ CCDB_GUARDED_BY(mu_);
  std::thread accept_thread_;  // after everything it uses
};

}  // namespace ccdb::net

#endif  // CCDB_NET_LISTENER_H_
