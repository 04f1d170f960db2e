#include "net/status_server.h"

#include <functional>
#include <utility>

#include "obs/exposition.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace ccdb::net {

namespace {

/// One full HTTP/1.0 response. Every reply closes the connection, so
/// Content-Length plus `Connection: close` is the whole story.
std::string HttpResponse(int code, const char* reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\n"
                    "Content-Type: " +
                    content_type +
                    "\r\n"
                    "Content-Length: " +
                    std::to_string(body.size()) +
                    "\r\n"
                    "Connection: close\r\n"
                    "\r\n";
  out += body;
  return out;
}

std::string ErrorResponse(int code, const char* reason,
                          const std::string& detail) {
  return HttpResponse(code, reason, "text/plain; charset=utf-8",
                      detail + "\n");
}

}  // namespace

StatusServer::StatusServer(Server* server, StatusServerOptions options)
    : server_(server), options_(std::move(options)) {}

Result<std::unique_ptr<StatusServer>> StatusServer::Start(
    Server* server, StatusServerOptions options) {
  if (server == nullptr) {
    return Status::InvalidArgument("StatusServer::Start: null server");
  }
  auto status_server = std::unique_ptr<StatusServer>(
      new StatusServer(server, std::move(options)));
  CCDB_RETURN_IF_ERROR(status_server->listener_.Start(
      status_server->options_.port,
      std::bind_front(&StatusServer::ServeConnection, status_server.get())));
  return status_server;
}

void StatusServer::ServeConnection(uint64_t /*conn_id*/, Socket* sock) {
  // Read until the blank line ending the request head, EOF, or the byte
  // cap. Anything after the head (a request body) is ignored.
  std::string head;
  bool complete = false;
  bool oversize = false;
  char buf[1024];
  while (!complete && !oversize) {
    Result<size_t> got = sock->RecvSome(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;  // error or clean EOF mid-request
    head.append(buf, *got);
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos) {
      complete = true;
    } else if (head.size() > kMaxRequestBytes) {
      oversize = true;
    }
  }

  std::string response;
  if (oversize) {
    response = ErrorResponse(400, "Bad Request", "request too large");
  } else if (complete) {
    response = RespondTo(head);
  }
  // An incomplete request (peer vanished mid-head) gets no reply.
  if (!response.empty()) IgnoreError(sock->SendAll(response.data(),
                                                   response.size()));
  sock->ShutdownSend();
}

std::string StatusServer::RespondTo(const std::string& request_head) const {
  // Request line: METHOD SP TARGET SP VERSION.
  const size_t line_end = request_head.find_first_of("\r\n");
  const std::string line = request_head.substr(
      0, line_end == std::string::npos ? request_head.size() : line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos || sp1 == 0 ||
      sp2 == sp1 + 1) {
    return ErrorResponse(400, "Bad Request", "malformed request line");
  }
  const std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  if (version.rfind("HTTP/", 0) != 0) {
    return ErrorResponse(400, "Bad Request", "malformed request line");
  }
  if (method != "GET") {
    return ErrorResponse(405, "Method Not Allowed", "only GET is supported");
  }
  // Strip a query string; scrapers append them freely.
  const size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);

  if (target == "/metrics") {
    return HttpResponse(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                        MetricsBody());
  }
  if (target == "/healthz") {
    return HttpResponse(200, "OK", "application/json", HealthzBody());
  }
  return ErrorResponse(404, "Not Found", "no such path: " + target);
}

std::string StatusServer::MetricsBody() const {
  return obs::RenderPrometheus(server_->MergedSnapshot()) +
         obs::RenderBuildInfo();
}

std::string StatusServer::HealthzBody() const {
  const obs::MetricsRegistry::Snapshot snapshot = server_->MergedSnapshot();
  // Role is dynamic: a promoted replica front-end reports "leader" from
  // the moment Server::Promote flips it.
  const bool is_replica = server_->read_only();
  std::string out = "{\"status\":\"ok\",\"role\":\"";
  out += is_replica ? "replica" : "leader";
  out += "\",\"term\":" + std::to_string(server_->term());
  out += ",\"version\":\"" + obs::JsonEscape(obs::BuildVersion()) + "\"";
  out += ",\"catalog_epoch\":" +
         std::to_string(snapshot.Value(obs::names::kCatalogEpoch));
  out += ",\"wal_lsn\":" + std::to_string(snapshot.Value(obs::names::kWalLsn));
  if (is_replica && options_.replica != nullptr) {
    const Replica::Stats stats = options_.replica->stats();
    out += ",\"replica\":{\"applied_lsn\":" + std::to_string(stats.applied_lsn);
    out += ",\"leader_next_lsn\":" + std::to_string(stats.leader_next_lsn);
    out += ",\"lag_batches\":" + std::to_string(stats.lag_batches);
    out += ",\"lag_bytes\":" + std::to_string(stats.lag_bytes);
    out += ",\"resyncs\":" + std::to_string(stats.resyncs);
    out += ",\"caught_up\":";
    out += stats.caught_up ? "true" : "false";
    out += "}";
  }
  out += "}\n";
  return out;
}

}  // namespace ccdb::net
