#include "net/listener.h"

namespace ccdb::net {

Status ConnectionListener::Start(uint16_t port, ServeFn serve) {
  CCDB_ASSIGN_OR_RETURN(listener_, Listener::Bind(port));
  serve_ = std::move(serve);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ConnectionListener::Shutdown() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  listener_.Close();  // unblocks Accept()
  if (accept_thread_.joinable()) accept_thread_.join();
  std::map<uint64_t, std::thread> to_join;
  {
    MutexLock lock(mu_);
    for (auto& [id, sock] : live_) sock->ShutdownBoth();
    to_join.swap(threads_);
  }
  for (auto& [id, thread] : to_join) thread.join();
}

size_t ConnectionListener::open() const {
  MutexLock lock(mu_);
  return live_.size();
}

void ConnectionListener::AcceptLoop() {
  while (true) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) return;  // closed: the drain has begun
    ReapFinished();
    Socket sock = std::move(accepted).value();
    {
      MutexLock lock(mu_);
      if (stopping_) return;
      // Admitted and unfinished, registered or not: a burst must not pass.
      if (max_connections_ == 0 ||
          threads_.size() - finished_.size() < max_connections_) {
        const uint64_t conn_id = next_conn_id_++;
        // Started under the lock the thread takes to report itself
        // finished, so its handle is in threads_ by then.
        std::thread thread([this, conn_id, s = std::move(sock)]() mutable {
          RunConnection(conn_id, std::move(s));
        });
        threads_.emplace(conn_id, std::move(thread));
        continue;
      }
    }
    if (refuse_) refuse_(&sock);  // then the refused socket closes
  }
}

void ConnectionListener::RunConnection(uint64_t conn_id, Socket sock) {
  {
    MutexLock lock(mu_);
    if (stopping_) {
      // The drain may have swept live_ already: close unserved.
      finished_.push_back(conn_id);
      return;
    }
    live_.emplace(conn_id, &sock);
  }
  serve_(conn_id, &sock);
  MutexLock lock(mu_);
  live_.erase(conn_id);
  finished_.push_back(conn_id);
}

void ConnectionListener::ReapFinished() {
  std::vector<std::thread> done;
  {
    MutexLock lock(mu_);
    for (uint64_t id : finished_) {
      done.push_back(std::move(threads_.extract(id).mapped()));
    }
    finished_.clear();
  }
  for (std::thread& thread : done) thread.join();
}

}  // namespace ccdb::net
