// An interactive CQA/CDB shell.
//
// Loads .cdb data files and evaluates the step-based ASCII query language
// interactively — the "user interface layer" slot of the paper's Figure 1.
// Statements run through the concurrent `service::QueryService` (one shell
// = one session), so the shell exercises the same front door as programmatic
// clients and can report its metrics.
//
// Usage:  cqa_shell [file.cdb ...]
// Commands:
//   <step> = <operator> ...     evaluate a CQA step (see `help`)
//   show <relation>             print a relation
//   schema <relation>           print a schema
//   list                        list relations
//   load <path>                 load a .cdb file
//   save <path>                 export the database as a .cdb file
//   plan <relation>             advisor: joint vs separate indexing hints
//   BEGIN / COMMIT / ROLLBACK   multi-statement catalog transaction
//   \txn                        show the open transaction's state
//   \trace <script|file>        EXPLAIN ANALYZE: run with per-operator spans
//   \metrics                    query-service metrics snapshot
//   \top [ticks] [ms]           live dashboard (qps, p50/p99, queue, lag)
//   \checkpoint                 apply pending pages + truncate the WAL
//   \deadline <ms>|off          wall-clock budget for later statements/traces
//   \submit <statement>         run a statement in the background (prints id)
//   \wait <id>                  block on a background query's result
//   \cancel <id>                cancel a queued or running query
//   \connect <host:port>        route statements and commands to a ccdb_serve
//   \disconnect                 back to the in-process service
//   \promote                    fail over: connected replica becomes leader
//   \retry on|off               reconnecting idempotent retry for statements
//   help                        syntax summary
//   quit
//
// In connected mode (`\connect`) every statement and command — show,
// schema, list, load, save, plan, \trace, \metrics, \submit, \wait,
// \cancel, \checkpoint — travels over the binary wire protocol through
// `net::Client`; server-side failures (including governance shedding with
// its retry-after hint) print exactly as local ones do.
//
// The shell's base catalog is backed by a `DurableStore`: every load and
// catalog write is journaled to a write-ahead log on the simulated disk
// before it is acknowledged, and `\checkpoint` truncates the log once its
// batches are applied.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "ccdb.h"
#include "util/string_util.h"

using namespace ccdb;  // NOLINT: example brevity

namespace {

void PrintHelp() {
  std::cout <<
      R"(CQA statements (each defines/overwrites a named step):
  R1 = select t >= 4, t <= 9, landId = A from R0
  R2 = project R1 on name, t
  R3 = join A and B            (natural join; also: product, intersect)
  R4 = union A and B
  R5 = minus A and B           (difference)
  R6 = rename x to t in R5
  R7 = buffer-join L and P within 5 [using fid]
  R8 = k-nearest L and P k 3 [using fid]
Shell commands: show/schema/list/load/save/plan/\txn/\trace/\metrics/\top/
                \checkpoint/\deadline/\submit/\wait/\cancel/help/quit
  BEGIN / COMMIT / ROLLBACK  stage loads as one atomic catalog commit
  \txn                 show the open transaction (id, epoch, staged writes)
  \trace <statement>   run one statement with per-operator spans
  \trace <file>        run a multi-step script file the same way
  \top [ticks] [ms]    live dashboard, default 5 ticks every 1000 ms
  \deadline <ms>|off   set/clear a wall-clock budget for later statements
                       and traces
  \submit <statement>  run in the background; prints a query id
  \wait <id>           block on a background query's result
  \cancel <id>         cancel a queued or running query by id
  \connect host:port   route statements/commands to a ccdb_serve daemon
  \disconnect          back to the in-process service
  \promote             fail over: make the connected replica the leader
  \retry on|off        reconnect + idempotent-retry statements (failover)
)";
}

void ShowRelation(service::QueryService* service, service::SessionId session,
                  const std::string& name) {
  auto rel = service->GetRelation(session, name);
  if (!rel.ok()) {
    std::cout << rel.status().ToString() << "\n";
    return;
  }
  std::cout << rel->ToString() << "\n";
}

void AdviseRelation(const Relation& rel) {
  // A default conjunctive probe workload over the relation's extent.
  std::vector<BoxQuery> workload;
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    double x = static_cast<double>(rng.UniformInt(0, 2900));
    double y = static_cast<double>(rng.UniformInt(0, 2900));
    workload.push_back(BoxQuery::Both(x, x + 100, y, y + 100));
  }
  auto report = cqa::AdviseIndexing(rel, workload, "x", "y",
                                    Rect::Make2D(-10, 3110, -10, 3110));
  if (!report.ok()) {
    std::cout << report.status().ToString() << "\n";
    return;
  }
  std::cout << report->ToString() << "\n";
}

void AdvisePlan(service::QueryService* service, service::SessionId session,
                const std::string& name) {
  auto rel = service->GetRelation(session, name);
  if (!rel.ok()) {
    std::cout << rel.status().ToString() << "\n";
    return;
  }
  AdviseRelation(*rel);
}

/// A fresh nonzero trace id. Client-assigned: the same id stamps the
/// shell's output, the server's span tree, its slow-query log, and its
/// event log, so one grep correlates all four.
uint64_t NewTraceId() {
  static std::mt19937_64 rng{std::random_device{}()};
  uint64_t id = 0;
  while (id == 0) id = rng();
  return id;
}

/// The `\trace` argument: a script file's contents when it names a
/// readable one, else the statement itself.
std::string TraceArgument(const std::string& arg) {
  std::ifstream file(arg);
  if (!file.good()) return arg;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Renders the EXPLAIN ANALYZE view — optimized plan, per-operator span
/// tree, and totals — of a local or remote trace.
template <typename Report>
void PrintTrace(const Result<Report>& report) {
  if (!report.ok()) {
    std::cout << report.status().ToString() << "\n";
    return;
  }
  std::cout << "plan (optimized):\n" << report->plan_text << "\n";
  std::cout << "trace (id " << report->trace_id << "):\n"
            << report->root.ToString() << "\n";
  std::cout << "total: " << report->response.latency_us / 1000.0 << " ms, "
            << report->response.relation.size() << " tuples | "
            << report->root.TotalCounters().ToString() << "\n";
}

/// Loads a .cdb file and installs its relations through the service (so
/// versions bump and dependent cache entries invalidate). Session-scoped:
/// inside BEGIN...COMMIT the load stages with the transaction.
void LoadInto(service::QueryService* service, service::SessionId session,
              const std::string& path) {
  Database staged;
  Status s = lang::LoadDatabaseFile(path, &staged);
  if (!s.ok()) {
    std::cout << s.ToString() << "\n";
    return;
  }
  for (const std::string& name : staged.Names()) {
    Status replaced =
        service->ReplaceRelation(session, name, **staged.Get(name));
    if (!replaced.ok()) {
      std::cout << name << ": " << replaced.ToString() << "\n";
      return;
    }
  }
  std::cout << "ok\n";
}

/// `\txn`: shows the session's transaction state (id, pinned snapshot
/// epoch, staged writes) or "no open transaction".
void ShowTxn(service::QueryService* service, service::SessionId session) {
  auto info = service->TransactionInfo(session);
  if (!info.ok()) {
    std::cout << info.status().ToString() << "\n";
    return;
  }
  if (!info->active) {
    std::cout << "no open transaction (catalog epoch "
              << service->CatalogEpoch() << ")\n";
    return;
  }
  std::cout << "txn " << info->txn_id << " open, snapshot epoch "
            << info->snapshot_epoch << ", " << info->staged_writes.size()
            << " staged write(s)";
  for (const std::string& name : info->staged_writes) {
    std::cout << "\n  " << name;
  }
  std::cout << "\n";
}

/// --- `\top`: a polling dashboard over the metrics snapshot surface ---

/// The histogram named `name`, or nullptr.
const obs::Histogram::Snapshot* FindHist(
    const obs::MetricsRegistry::Snapshot& snapshot, const std::string& name) {
  for (const obs::Histogram::Snapshot& hist : snapshot.histograms) {
    if (hist.name == name) return &hist;
  }
  return nullptr;
}

/// Counter delta between two snapshots (0 when it went backwards, e.g.
/// across a server restart).
uint64_t DeltaValue(const obs::MetricsRegistry::Snapshot& cur,
                    const obs::MetricsRegistry::Snapshot& prev,
                    const std::string& name) {
  const uint64_t now = cur.Value(name);
  const uint64_t before = prev.Value(name);
  return now > before ? now - before : 0;
}

/// The interval-local histogram: bucket-wise difference of two cumulative
/// snapshots, so percentiles describe just the samples recorded between
/// the two polls.
obs::Histogram::Snapshot DeltaHist(const obs::Histogram::Snapshot* cur,
                                   const obs::Histogram::Snapshot* prev) {
  obs::Histogram::Snapshot delta;
  if (cur == nullptr) return delta;
  delta = *cur;
  if (prev == nullptr) return delta;
  delta.count -= std::min(prev->count, delta.count);
  delta.sum -= std::min(prev->sum, delta.sum);
  for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    delta.buckets[i] -= std::min(prev->buckets[i], delta.buckets[i]);
  }
  return delta;
}

/// `\top [iterations] [interval_ms]`: polls the snapshot source (the
/// in-process service or, over `\connect`, the remote server's merged
/// registry) and renders per-interval rates — client-side deltas, no
/// server-side state.
void TopDashboard(
    const std::function<Result<obs::MetricsRegistry::Snapshot>()>& poll,
    int iterations, int interval_ms) {
  Result<obs::MetricsRegistry::Snapshot> prev = poll();
  if (!prev.ok()) {
    std::cout << prev.status().ToString() << "\n";
    return;
  }
  std::cout << "\\top: " << iterations << " tick(s) every " << interval_ms
            << " ms\n";
  for (int tick = 1; tick <= iterations; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    Result<obs::MetricsRegistry::Snapshot> cur = poll();
    if (!cur.ok()) {
      std::cout << cur.status().ToString() << "\n";
      return;
    }
    const uint64_t completed =
        DeltaValue(*cur, *prev, obs::names::kQueriesCompleted);
    const double qps = completed * 1000.0 / interval_ms;
    const obs::Histogram::Snapshot latency = DeltaHist(
        FindHist(*cur, obs::names::kQueryLatencyUs),
        FindHist(*prev, obs::names::kQueryLatencyUs));
    const uint64_t hits = DeltaValue(*cur, *prev, obs::names::kCacheHits);
    const uint64_t misses = DeltaValue(*cur, *prev, obs::names::kCacheMisses);
    std::cout << "[" << tick << "/" << iterations << "] qps=" << qps;
    if (latency.count > 0) {
      std::cout << " p50<=" << latency.PercentileUpperBound(0.50) << "us"
                << " p99<=" << latency.PercentileUpperBound(0.99) << "us";
    } else {
      std::cout << " p50=- p99=-";
    }
    std::cout << " queue=" << cur->Value(obs::names::kQueueDepth);
    if (hits + misses > 0) {
      std::cout << " cache_hit=" << 100 * hits / (hits + misses) << "%";
    } else {
      std::cout << " cache_hit=-";
    }
    std::cout << " epoch=" << cur->Value(obs::names::kCatalogEpoch)
              << " wal_lsn=" << cur->Value(obs::names::kWalLsn) << "\n";
    if (cur->gauges.count(obs::names::kReplicaLagBatches) != 0) {
      std::cout << "      replica: lag_batches="
                << cur->Value(obs::names::kReplicaLagBatches)
                << " lag_bytes=" << cur->Value(obs::names::kReplicaLagBytes)
                << " applied_lsn="
                << cur->Value(obs::names::kReplicaLastApplyLsn)
                << " resyncs=" << cur->Value(obs::names::kReplicaResyncs)
                << "\n";
    }
    prev = std::move(cur);
  }
}

/// `load` against a connected server: parse locally, ship each relation.
void LoadRemote(net::Client* remote, const std::string& path) {
  Database staged;
  Status s = lang::LoadDatabaseFile(path, &staged);
  if (!s.ok()) {
    std::cout << s.ToString() << "\n";
    return;
  }
  for (const std::string& name : staged.Names()) {
    Status shipped = remote->LoadRelation(name, **staged.Get(name));
    if (!shipped.ok()) {
      std::cout << name << ": " << shipped.ToString() << "\n";
      return;
    }
  }
  std::cout << "ok\n";
}

/// `save` against a connected server: fetch every visible relation.
void SaveRemote(net::Client* remote, const std::string& path) {
  auto names = remote->ListRelations();
  if (!names.ok()) {
    std::cout << names.status().ToString() << "\n";
    return;
  }
  Database snapshot;
  for (const std::string& name : *names) {
    auto rel = remote->GetRelation(name);
    if (!rel.ok()) {
      std::cout << name << ": " << rel.status().ToString() << "\n";
      return;
    }
    snapshot.CreateOrReplace(name, std::move(*rel));
  }
  Status s = lang::SaveDatabaseFile(path, snapshot);
  std::cout << (s.ok() ? "saved" : s.ToString()) << "\n";
}

/// Parses "host:port"; empty host on failure.
std::pair<std::string, uint16_t> SplitHostPort(const std::string& arg) {
  const size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon + 1 >= arg.size()) return {"", 0};
  const int port = std::atoi(arg.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return {"", 0};
  return {arg.substr(0, colon), static_cast<uint16_t>(port)};
}

/// Renders one finished query result (shared by Execute and `\wait`).
void PrintResponse(const Result<service::QueryResponse>& response) {
  if (!response.ok()) {
    std::cout << response.status().ToString() << "\n";
    return;
  }
  if (response->step == "BEGIN" || response->step == "COMMIT" ||
      response->step == "ROLLBACK") {
    // Transaction controls have no result relation worth printing.
    std::cout << (response->step == "BEGIN"      ? "transaction open"
                  : response->step == "COMMIT"   ? "committed"
                                                 : "rolled back")
              << "\n";
    return;
  }
  if (response->cache_hit) std::cout << "(cached)\n";
  if (response->truncated) std::cout << "(truncated: budget reached)\n";
  std::cout << response->relation.ToString() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Database db;
  for (int i = 1; i < argc; ++i) {
    Status s = lang::LoadDatabaseFile(argv[i], &db);
    if (!s.ok()) {
      std::cerr << "error loading " << argv[i] << ": " << s.ToString()
                << "\n";
      return 1;
    }
    std::cout << "loaded " << argv[i] << "\n";
  }

  // Durable storage stack: base catalog writes are journaled through a
  // WAL on the simulated disk before they are acknowledged.
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  if (!store.ok()) {
    std::cerr << "error creating durable store: " << store.status().ToString()
              << "\n";
    return 1;
  }
  if (!db.Names().empty()) {
    Status committed = (*store)->CommitCatalog(db);
    if (!committed.ok()) {
      std::cerr << "error persisting initial catalog: "
                << committed.ToString() << "\n";
      return 1;
    }
  }

  service::ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 128;
  options.disk = &disk;
  options.store = store->get();
  service::QueryService service(&db, options);
  const service::SessionId session = service.OpenSession();

  std::cout << "CCDB shell — 'help' for syntax, 'quit' to exit.\n";

  // Interactive governance state: `\deadline` applies to every later
  // statement; `\submit` parks futures here until `\wait`.
  double deadline_ms = 0;
  std::map<uint64_t, std::future<Result<service::QueryResponse>>> pending;
  auto query_options = [&deadline_ms] {
    service::QueryOptions opts;
    if (deadline_ms > 0) opts.deadline_us = deadline_ms * 1000.0;
    return opts;
  };
  // Connected mode: when set, statements and commands route through the
  // wire protocol instead of the in-process service. With `\retry on`, a
  // parallel ResilientClient carries the *statements*, so a leader
  // restart or failover mid-session reconnects and retries idempotently
  // instead of surfacing a transport error.
  std::unique_ptr<net::Client> remote;
  std::unique_ptr<net::ResilientClient> resilient;
  std::string remote_host;
  uint16_t remote_port = 0;

  std::string line;
  while (std::cout << "cqa> " << std::flush, std::getline(std::cin, line)) {
    std::istringstream words(line);
    std::string command;
    words >> command;
    if (command.empty() || command[0] == '#') continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
      continue;
    }
    if (command == "\\connect") {
      std::string arg;
      words >> arg;
      auto [host, port] = SplitHostPort(arg);
      if (host.empty()) {
        std::cout << "\\connect needs host:port\n";
        continue;
      }
      net::ClientOptions copts;
      copts.client_name = "cqa_shell";
      auto client = net::Client::Connect(host, port, copts);
      if (!client.ok()) {
        std::cout << client.status().ToString() << "\n";
        continue;
      }
      remote = std::move(*client);
      remote_host = host;
      remote_port = port;
      resilient.reset();  // re-arm \retry against the new target if asked
      std::cout << "connected to " << remote->server_name() << " at " << arg
                << (remote->server_read_only() ? " (read-only replica)" : "")
                << " (term " << remote->server_term() << ")\n";
      continue;
    }
    if (command == "\\disconnect") {
      if (remote == nullptr) {
        std::cout << "not connected\n";
        continue;
      }
      remote.reset();
      resilient.reset();
      std::cout << "local mode\n";
      continue;
    }
    if (command == "\\promote") {
      if (remote == nullptr) {
        std::cout << "\\promote needs a connection (\\connect first)\n";
        continue;
      }
      auto term = remote->Promote();
      if (!term.ok()) {
        std::cout << term.status().ToString() << "\n";
      } else {
        std::cout << "promoted: serving writes under term " << *term << "\n";
      }
      continue;
    }
    if (command == "\\retry") {
      std::string arg;
      words >> arg;
      if (arg == "off") {
        resilient.reset();
        std::cout << "retry off\n";
      } else if (arg == "on") {
        if (remote == nullptr) {
          std::cout << "\\retry needs a connection (\\connect first)\n";
          continue;
        }
        net::ResilientClientOptions ropts;
        ropts.client_name = "cqa_shell-retry";
        ropts.seed = NewTraceId();  // distinct request-id stream per shell
        auto rc = net::ResilientClient::Connect(remote_host, remote_port,
                                                ropts);
        if (!rc.ok()) {
          std::cout << rc.status().ToString() << "\n";
          continue;
        }
        resilient = std::move(*rc);
        std::cout << "retry on: statements reconnect and retry "
                     "idempotently\n";
      } else {
        std::cout << "\\retry needs 'on' or 'off'\n";
      }
      continue;
    }
    if (command == "\\trace") {
      std::string rest;
      std::getline(words, rest);
      rest = Trim(rest);
      if (rest.empty()) {
        std::cout << "\\trace needs a statement or script file\n";
        continue;
      }
      // The shell assigns the trace id; over \connect, FETCH_TRACE ships
      // the whole remote span tree back, rendered like a local one.
      service::QueryOptions opts = query_options();
      opts.trace_id = NewTraceId();
      if (remote != nullptr) {
        PrintTrace(remote->FetchTrace(TraceArgument(rest), opts));
      } else {
        PrintTrace(service.Trace(session, TraceArgument(rest), opts));
      }
      continue;
    }
    if (command == "\\deadline") {
      std::string arg;
      words >> arg;
      if (arg == "off") {
        deadline_ms = 0;
        std::cout << "deadline cleared\n";
      } else if (double ms = std::atof(arg.c_str()); ms > 0) {
        deadline_ms = ms;
        std::cout << "deadline " << ms << " ms\n";
      } else {
        std::cout << "\\deadline needs <ms> or 'off'\n";
      }
      continue;
    }
    if (command == "\\submit") {
      std::string rest;
      std::getline(words, rest);
      rest = Trim(rest);
      if (rest.empty()) {
        std::cout << "\\submit needs a statement\n";
        continue;
      }
      if (remote != nullptr) {
        auto id = remote->Submit(rest, query_options());
        if (!id.ok()) {
          std::cout << id.status().ToString() << "\n";
        } else {
          std::cout << "query " << *id
                    << " submitted (\\wait or \\cancel by id)\n";
        }
        continue;
      }
      auto submitted = service.Submit(session, rest, query_options());
      if (!submitted.ok()) {
        std::cout << submitted.status().ToString() << "\n";
        continue;
      }
      pending[submitted->query_id] = std::move(submitted->future);
      std::cout << "query " << submitted->query_id
                << " submitted (\\wait or \\cancel by id)\n";
      continue;
    }
    if (command == "\\wait" || command == "\\cancel") {
      std::string arg;
      words >> arg;
      const uint64_t id = std::strtoull(arg.c_str(), nullptr, 10);
      if (id == 0) {
        std::cout << command << " needs a query id\n";
        continue;
      }
      if (remote != nullptr) {
        if (command == "\\cancel") {
          Status s = remote->Cancel(id);
          std::cout << (s.ok() ? "cancel requested" : s.ToString()) << "\n";
        } else {
          PrintResponse(remote->Wait(id));
        }
        continue;
      }
      if (command == "\\cancel") {
        Status s = service.Cancel(session, id);
        std::cout << (s.ok() ? "cancel requested" : s.ToString()) << "\n";
        continue;
      }
      auto it = pending.find(id);
      if (it == pending.end()) {
        std::cout << "no pending query " << id << "\n";
        continue;
      }
      PrintResponse(it->second.get());
      pending.erase(it);
      continue;
    }
    if (command == "\\txn") {
      if (remote != nullptr) {
        // The server keeps the transaction with the connection's session;
        // state travels as ordinary statements, so just say how to use it.
        std::cout << "connected mode: BEGIN / COMMIT / ROLLBACK run "
                     "server-side on this connection's session\n";
      } else {
        ShowTxn(&service, session);
      }
      continue;
    }
    if (command == "\\top") {
      int iterations = 5;
      int interval_ms = 1000;
      if (std::string arg; words >> arg) {
        iterations = std::max(1, std::atoi(arg.c_str()));
      }
      if (std::string arg; words >> arg) {
        interval_ms = std::max(10, std::atoi(arg.c_str()));
      }
      auto poll = [&]() -> Result<obs::MetricsRegistry::Snapshot> {
        if (remote != nullptr) return remote->MetricsSnapshot();
        return service.MetricsSnapshot();
      };
      TopDashboard(poll, iterations, interval_ms);
      continue;
    }
    if (command == "\\metrics" || command == "metrics") {
      if (remote != nullptr) {
        auto text = remote->MetricsText();
        std::cout << (text.ok() ? *text : text.status().ToString()) << "\n";
      } else {
        std::cout << service.Metrics().ToString() << "\n";
      }
      continue;
    }
    if (command == "\\checkpoint" || command == "checkpoint") {
      Status s = remote != nullptr ? remote->Checkpoint()
                                   : service.Checkpoint();
      std::cout << (s.ok() ? "checkpointed" : s.ToString()) << "\n";
      continue;
    }
    if (command == "list") {
      if (remote != nullptr) {
        auto names = remote->ListRelations();
        if (!names.ok()) {
          std::cout << names.status().ToString() << "\n";
          continue;
        }
        for (const std::string& name : *names) std::cout << "  " << name
                                                         << "\n";
        continue;
      }
      for (const std::string& name : service.VisibleNames(session)) {
        auto rel = service.GetRelation(session, name);
        std::cout << "  " << name << " ("
                  << (rel.ok() ? rel->size() : 0) << " tuples)\n";
      }
      continue;
    }
    if (command == "show" || command == "schema" || command == "plan" ||
        command == "load" || command == "save") {
      std::string arg;
      words >> arg;
      if (arg.empty()) {
        std::cout << command << " needs an argument\n";
        continue;
      }
      if (remote != nullptr) {
        if (command == "show") {
          auto rel = remote->GetRelation(arg);
          std::cout << (rel.ok() ? rel->ToString() : rel.status().ToString())
                    << "\n";
        } else if (command == "schema") {
          auto rel = remote->GetRelation(arg);
          std::cout << (rel.ok() ? rel->schema().ToString()
                                 : rel.status().ToString())
                    << "\n";
        } else if (command == "plan") {
          auto rel = remote->GetRelation(arg);
          if (!rel.ok()) {
            std::cout << rel.status().ToString() << "\n";
          } else {
            AdviseRelation(*rel);
          }
        } else if (command == "load") {
          LoadRemote(remote.get(), arg);
        } else {
          SaveRemote(remote.get(), arg);
        }
        continue;
      }
      if (command == "show") {
        ShowRelation(&service, session, arg);
      } else if (command == "schema") {
        auto rel = service.GetRelation(session, arg);
        std::cout << (rel.ok() ? rel->schema().ToString()
                               : rel.status().ToString())
                  << "\n";
      } else if (command == "plan") {
        AdvisePlan(&service, session, arg);
      } else if (command == "load") {
        LoadInto(&service, session, arg);
      } else {
        Database snapshot = service.CloneBase();
        Status s = lang::SaveDatabaseFile(arg, snapshot);
        std::cout << (s.ok() ? "saved" : s.ToString()) << "\n";
      }
      continue;
    }
    // Otherwise: a CQA statement, executed by the service (or the
    // connected server) under the shell's current \deadline (if any).
    if (resilient != nullptr) {
      PrintResponse(resilient->Execute(line, query_options()));
    } else if (remote != nullptr) {
      PrintResponse(remote->Execute(line, query_options()));
    } else {
      PrintResponse(service.Execute(session, line, query_options()));
    }
  }
  return 0;
}
