#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>

namespace perfbench {
namespace {

/// Aggregate host CPU ticks from the first line of /proc/stat.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks ticks;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return HostTicks{};
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

/// BEGIN, LOAD Live, COMMIT on the client's session; rolls back on a
/// failed LOAD so the next operation starts outside a transaction.
ccdb::Status Transaction(ccdb::net::Client* client,
                         const ccdb::Relation& live) {
  CCDB_RETURN_IF_ERROR(client->Execute("BEGIN").status());
  ccdb::Status loaded = client->LoadRelation("Live", live);
  if (!loaded.ok()) {
    ccdb::IgnoreError(client->Execute("ROLLBACK"));
    return loaded;
  }
  return client->Execute("COMMIT").status();
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0 || n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

void MetricSet::SetIf(const std::string& name, std::optional<double> value,
                      const std::string& unit) {
  if (value) Set(name, *value, unit);
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (const Entry& e : entries_) {
    if (out.size() > 1) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + JsonNumber(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

ccdb::Result<std::unique_ptr<Leader>> StartLeader(
    const std::vector<std::pair<std::string, ccdb::Relation>>& catalog) {
  auto leader = std::make_unique<Leader>();
  CCDB_ASSIGN_OR_RETURN(leader->store,
                        ccdb::DurableStore::Create(&leader->disk));
  ccdb::service::ServiceOptions options;
  options.disk = &leader->disk;
  options.store = leader->store.get();
  leader->service =
      std::make_unique<ccdb::service::QueryService>(nullptr, options);
  ccdb::net::ServerOptions server_options;
  server_options.store = leader->store.get();
  CCDB_ASSIGN_OR_RETURN(
      leader->server,
      ccdb::net::Server::Start(leader->service.get(), server_options));
  CCDB_ASSIGN_OR_RETURN(
      leader->client,
      ccdb::net::Client::Connect("127.0.0.1", leader->server->port()));
  for (const auto& [name, relation] : catalog) {
    CCDB_RETURN_IF_ERROR(leader->client->LoadRelation(name, relation));
  }
  return leader;
}

Phase RunPhase(Leader* leader, const std::vector<Op>& ops,
               const AfterOp& after_op) {
  Phase phase;
  ccdb::net::Client* client = leader->client.get();
  const ccdb::service::ServiceMetrics metrics0 = leader->service->Metrics();
  const uint64_t wal0 = leader->store->stats().bytes_appended;
  const HostTicks host0 = ReadHostTicks();
  double hook_cpu_s = 0;
  const double cpu0 = ProcessCpuSeconds();
  for (const Op& op : ops) {
    ++phase.attempted;
    OpOutcome out;
    ccdb::Status status;
    const double c0 = ProcessCpuSeconds();
    const double w0 = WallSeconds();
    if (op.kind == OpKind::kRead) {
      ccdb::Result<ccdb::service::QueryResponse> reply =
          client->Execute(op.script);
      if (reply.ok()) {
        out.response = std::move(reply).value();
      } else {
        status = reply.status();
      }
    } else {
      status = Transaction(client, *op.live);
    }
    out.cpu_ms = (ProcessCpuSeconds() - c0) * 1e3;
    out.wall_ms = (WallSeconds() - w0) * 1e3;
    out.ok = status.ok();

    std::string failure;
    if (!status.ok()) {
      ++phase.errors;
      failure = op.shape + ": " + status.ToString();
    } else if (op.kind == OpKind::kRead) {
      phase.read_cpu_ms.push_back(out.cpu_ms);
      phase.read_wall_ms.push_back(out.wall_ms);
      phase.cache_hits += out.response->cache_hit;
      failure = CheckAnswer(op, out.response->relation);
      phase.mismatches += !failure.empty();
    } else {
      phase.commit_cpu_ms.push_back(out.cpu_ms);
      ++phase.commits;
    }
    if (!failure.empty() && phase.first_failure.empty()) {
      phase.first_failure = failure;
    }
    if (after_op) {
      const double h0 = ProcessCpuSeconds();
      after_op(op, out);
      hook_cpu_s += ProcessCpuSeconds() - h0;
    }
  }
  phase.cpu_s = ProcessCpuSeconds() - cpu0 - hook_cpu_s;
  const HostTicks host1 = ReadHostTicks();
  if (host1.total > host0.total) {
    phase.steal_share = static_cast<double>(host1.steal - host0.steal) /
                        static_cast<double>(host1.total - host0.total);
  }
  phase.wal_bytes = leader->store->stats().bytes_appended - wal0;
  const ccdb::service::ServiceMetrics metrics1 = leader->service->Metrics();
  phase.service_cache_hits = metrics1.cache_hits - metrics0.cache_hits;
  phase.cache_lookups = phase.service_cache_hits + metrics1.cache_misses -
                        metrics0.cache_misses;
  return phase;
}

}  // namespace perfbench
