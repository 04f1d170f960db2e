// The traced run: after each wire round trip, the operation is replayed
// in-process against a mirror of the leader's catalog, calling each
// layer's public function in turn and timing every call in process CPU.
// Counters come from obs::CounterScope and operator spans from
// cqa::ExecuteTraced, both already exposed by the library.

#include <map>

#include "core/plan.h"
#include "data/database.h"
#include "harness.h"
#include "lang/compile.h"
#include "lang/query.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/serde.h"

namespace perfbench {
namespace {

using ccdb::Relation;

/// A session-style view for the interpreter: steps go to a private
/// Database, base relations are read from the mirror.
class StepOverlay : public ccdb::Database {
 public:
  explicit StepOverlay(const ccdb::Database* base) : base_(base) {}

  ccdb::Status Create(const std::string& name, Relation relation) override {
    return steps_.Create(name, std::move(relation));
  }
  void CreateOrReplace(const std::string& name, Relation relation) override {
    steps_.CreateOrReplace(name, std::move(relation));
  }
  ccdb::Result<const Relation*> Get(const std::string& name) const override {
    return steps_.Has(name) ? steps_.Get(name) : base_->Get(name);
  }
  ccdb::Status Drop(const std::string& name) override {
    return steps_.Drop(name);
  }
  bool Has(const std::string& name) const override {
    return steps_.Has(name) || base_->Has(name);
  }
  uint64_t Version(const std::string& name) const override {
    return steps_.Has(name) ? steps_.Version(name) : base_->Version(name);
  }
  std::vector<std::string> Names() const override {
    std::vector<std::string> names = base_->Names();
    for (const std::string& step : steps_.Names()) {
      if (!base_->Has(step)) names.push_back(step);
    }
    return names;
  }
  size_t size() const override { return Names().size(); }

 private:
  const ccdb::Database* base_;
  ccdb::Database steps_;
};

/// Microseconds of process CPU since `since` (seconds).
double UsSince(double since) { return (ProcessCpuSeconds() - since) * 1e6; }

/// Round-trip CPU of one query shape against what the layer calls cover.
struct ShapeCost {
  double round_trip_ms = 0;
  double covered_ms = 0;
  size_t count = 0;
};

}  // namespace

struct Tracer::State {
  ccdb::Database mirror;
  /// The store replayed commits go to. Like the leader's, it already holds
  /// the loaded catalog, so each commit is measured against the previous
  /// one rather than as a first commit.
  ccdb::PageManager side_disk;
  std::unique_ptr<ccdb::DurableStore> side_store;

  size_t reads = 0;
  double codec_us = 0;
  double response_bytes = 0;
  double canonicalize_us = 0;
  double interpret_us = 0;
  double compile_us = 0;
  double optimize_us = 0;
  double plan_execute_us = 0;
  double select_self_us = 0;
  double join_self_us = 0;
  double project_self_us = 0;
  uint64_t intermediate_tuples = 0;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  ccdb::obs::LayerCounters counters;

  size_t commits = 0;
  double insert_us = 0;
  double save_us = 0;
  double commit_us = 0;
  uint64_t pages_written = 0;
  uint64_t wal_bytes = 0;

  std::map<std::string, ShapeCost> shapes;
  size_t failures = 0;
  std::string first_failure;

  /// The shape with the most round-trip CPU per op outside the layer
  /// calls, and that remainder in ms.
  std::pair<std::string, double> LargestUncovered() const {
    std::pair<std::string, double> worst{"", 0};
    for (const auto& [shape, cost] : shapes) {
      const double ms = (cost.round_trip_ms - cost.covered_ms) /
                        static_cast<double>(cost.count);
      if (worst.first.empty() || ms > worst.second) worst = {shape, ms};
    }
    return worst;
  }

  void Fail(const std::string& what) {
    if (failures++ == 0) first_failure = what;
  }

  /// Sums operator self time by kind and tuple flow over a span tree.
  void AddSpans(const ccdb::obs::TraceNode& node) {
    const std::string& label = node.label;
    if (label.rfind("Select", 0) == 0) select_self_us += node.self_us;
    if (label.rfind("Join", 0) == 0) join_self_us += node.self_us;
    if (label.rfind("Project", 0) == 0) project_self_us += node.self_us;
    tuples_in += node.tuples_in;
    for (const ccdb::obs::TraceNode& child : node.children) AddSpans(child);
  }

  /// Returns the CPU (µs) of the calls the served read path makes.
  double ReplayRead(const Op& op, const ccdb::service::QueryResponse& reply) {
    ++reads;
    // net: the reply's encode and decode.
    double t = ProcessCpuSeconds();
    ccdb::Writer writer;
    ccdb::net::PutQueryResponse(&writer, reply);
    ccdb::Reader reader(writer.buffer());
    ccdb::service::QueryResponse decoded;
    const ccdb::Status decoded_ok =
        ccdb::net::GetQueryResponse(&reader, &decoded);
    const double codec = UsSince(t);
    codec_us += codec;
    response_bytes += static_cast<double>(writer.size());
    if (!decoded_ok.ok()) Fail(op.shape + " codec: " + decoded_ok.ToString());

    // lang: the service's cache-key work, then the interpreter it runs.
    t = ProcessCpuSeconds();
    ccdb::IgnoreError(ccdb::lang::CanonicalizeScript(op.script));
    ccdb::IgnoreError(ccdb::lang::ScriptInputs(op.script));
    const double canonicalize = UsSince(t);
    canonicalize_us += canonicalize;
    const double interpret = Interpret(op);

    // core: the compiled path (compile, optimize, execute), then the
    // same plan with operator spans.
    t = ProcessCpuSeconds();
    ccdb::Result<ccdb::lang::CompiledScript> compiled =
        ccdb::lang::CompileScript(op.script, mirror);
    compile_us += UsSince(t);
    if (!compiled.ok()) {
      Fail(op.shape + " compile: " + compiled.status().ToString());
      return codec + canonicalize + interpret;
    }
    t = ProcessCpuSeconds();
    std::unique_ptr<ccdb::cqa::PlanNode> plan =
        ccdb::cqa::Optimize(std::move(compiled->plan), mirror);
    optimize_us += UsSince(t);
    t = ProcessCpuSeconds();
    ccdb::Result<Relation> executed = ccdb::cqa::Execute(*plan, mirror);
    plan_execute_us += UsSince(t);
    if (!executed.ok()) {
      Fail(op.shape + " plan: " + executed.status().ToString());
    } else if (std::string diff = CheckAnswer(op, *executed); !diff.empty()) {
      Fail("plan " + diff);
    }
    ccdb::obs::TraceNode root;
    if (ccdb::cqa::ExecuteTraced(*plan, mirror, &root).ok()) {
      AddSpans(root);
      intermediate_tuples += root.SumTuplesOut() - root.tuples_out;
      tuples_out += root.tuples_out;
    }
    return codec + canonicalize + interpret;
  }

  /// The served path's engine call, ExecuteScript, under a CounterScope.
  double Interpret(const Op& op) {
    StepOverlay overlay(&mirror);
    ccdb::obs::CounterScope scope;
    const double t = ProcessCpuSeconds();
    ccdb::Result<std::string> final_step =
        ccdb::lang::ExecuteScript(op.script, &overlay);
    const double us = UsSince(t);
    interpret_us += us;
    counters += scope.counters();
    if (!final_step.ok()) {
      Fail(op.shape + " interpret: " + final_step.status().ToString());
      return us;
    }
    ccdb::Result<const Relation*> result = overlay.Get(*final_step);
    if (!result.ok()) {
      Fail(op.shape + " interpret: " + result.status().ToString());
    } else if (std::string diff = CheckAnswer(op, **result); !diff.empty()) {
      Fail("interpret " + diff);
    }
    return us;
  }

  /// Returns the CPU (µs) of the calls the served commit path makes.
  double ReplayCommit(const Op& op) {
    ++commits;
    const Relation& live = *op.live;
    // net: the LOAD payload's encode and decode.
    double t = ProcessCpuSeconds();
    ccdb::Writer writer;
    ccdb::net::PutRelation(&writer, live);
    ccdb::Reader reader(writer.buffer());
    Relation decoded;
    const ccdb::Status decoded_ok = ccdb::net::GetRelation(&reader, &decoded);
    const double codec = UsSince(t);
    if (!decoded_ok.ok()) Fail("commit codec: " + decoded_ok.ToString());

    // data: rebuild the committed relation tuple by tuple.
    t = ProcessCpuSeconds();
    Relation rebuilt(live.schema());
    for (const ccdb::Tuple& tuple : live.tuples()) {
      const ccdb::Status inserted = rebuilt.Insert(tuple);
      if (!inserted.ok()) Fail("commit insert: " + inserted.ToString());
    }
    insert_us += UsSince(t);
    mirror.CreateOrReplace("Live", std::move(rebuilt));

    // storage: serialize the whole catalog on a fresh disk, then commit it
    // durably on the side store.
    {
      ccdb::PageManager disk;
      ccdb::BufferPool pool(&disk, 64);
      t = ProcessCpuSeconds();
      const auto saved = ccdb::SaveDatabase(&pool, mirror);
      save_us += UsSince(t);
      if (!saved.ok()) Fail("commit save: " + saved.status().ToString());
    }
    if (side_store == nullptr) return codec;  // set-up failure, counted once
    const uint64_t writes0 = side_disk.stats().writes;
    const uint64_t wal0 = side_store->stats().bytes_appended;
    t = ProcessCpuSeconds();
    const ccdb::Status committed = side_store->CommitCatalog(mirror);
    const double commit = UsSince(t);
    commit_us += commit;
    if (!committed.ok()) Fail("commit: " + committed.ToString());
    pages_written += side_disk.stats().writes - writes0;
    wal_bytes += side_store->stats().bytes_appended - wal0;
    return codec + commit;
  }
};

Tracer::Tracer(
    const std::vector<std::pair<std::string, Relation>>& catalog)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  for (const auto& [name, relation] : catalog) {
    s.mirror.CreateOrReplace(name, relation);
  }
  auto store = ccdb::DurableStore::Create(&s.side_disk);
  if (!store.ok()) {
    s.Fail("side store: " + store.status().ToString());
    return;
  }
  s.side_store = std::move(store).value();
  if (const ccdb::Status seeded = s.side_store->CommitCatalog(s.mirror);
      !seeded.ok()) {
    s.Fail("side store: " + seeded.ToString());
    s.side_store.reset();
  }
}

Tracer::~Tracer() = default;

void Tracer::Replay(const Op& op, const OpOutcome& outcome) {
  if (!outcome.ok) return;  // the timed pass already counted the failure
  State& s = *state_;
  double covered_us = 0;
  if (op.kind == OpKind::kRead) {
    covered_us = s.ReplayRead(op, *outcome.response);
  } else {
    covered_us = s.ReplayCommit(op);
  }
  ShapeCost& shape = s.shapes[op.shape];
  shape.round_trip_ms += outcome.cpu_ms;
  shape.covered_ms += covered_us / 1e3;
  ++shape.count;
}

size_t Tracer::replay_failures() const { return state_->failures; }

const std::string& Tracer::first_replay_failure() const {
  return state_->first_failure;
}

void Tracer::Report(MetricSet* out) const {
  const State& s = *state_;
  if (s.reads > 0) {
    const double n = static_cast<double>(s.reads);
    out->Set("net.codec_us", s.codec_us / n, "us");
    out->Set("net.response_kb", s.response_bytes / 1024 / n, "KB");
    out->Set("lang.canonicalize_us", s.canonicalize_us / n, "us");
    out->Set("lang.interpret_us", s.interpret_us / n, "us");
    out->Set("lang.compile_us", s.compile_us / n, "us");
    out->Set("core.optimize_us", s.optimize_us / n, "us");
    out->Set("core.plan_execute_us", s.plan_execute_us / n, "us");
    out->Set("core.select_self_us", s.select_self_us / n, "us");
    out->Set("core.join_self_us", s.join_self_us / n, "us");
    out->Set("core.project_self_us", s.project_self_us / n, "us");
    out->Set("core.intermediate_tuples",
             static_cast<double>(s.intermediate_tuples) / n, "count");
    out->Set("core.tuples_in_per_out",
             static_cast<double>(s.tuples_in) /
                 static_cast<double>(std::max<uint64_t>(1, s.tuples_out)),
             "ratio");
    out->Set("constraint.conjunctions",
             static_cast<double>(s.counters.conjunctions) / n, "count");
    out->Set("constraint.fm_eliminations",
             static_cast<double>(s.counters.fm_eliminations) / n, "count");
    out->Set("constraint.redundancy_culls",
             static_cast<double>(s.counters.redundancy_culls) / n, "count");
    out->Set("index.node_visits",
             static_cast<double>(s.counters.index_node_visits) / n, "count");
    out->Set("index.leaf_hits",
             static_cast<double>(s.counters.index_leaf_hits) / n, "count");
  }
  if (s.commits > 0) {
    const double n = static_cast<double>(s.commits);
    out->Set("data.insert_us", s.insert_us / n, "us");
    out->Set("storage.save_us", s.save_us / n, "us");
    out->Set("storage.commit_us", s.commit_us / n, "us");
    out->Set("storage.pages_written", static_cast<double>(s.pages_written) / n,
             "count");
    out->Set("storage.wal_kb", static_cast<double>(s.wal_bytes) / 1024 / n,
             "KB");
  }

  double round_trip_ms = 0, covered_ms = 0;
  for (const auto& [shape, cost] : s.shapes) {
    round_trip_ms += cost.round_trip_ms;
    covered_ms += cost.covered_ms;
  }
  if (round_trip_ms > 0) {
    out->Set("trace.coverage", covered_ms / round_trip_ms, "ratio");
    out->Set("trace.uncovered_ms", s.LargestUncovered().second, "ms");
  }
}

std::string Tracer::largest_uncovered_shape() const {
  return state_->LargestUncovered().first;
}

}  // namespace perfbench
