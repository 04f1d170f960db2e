#include "core/plan.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "core/spatial.h"
#include "obs/governance.h"

namespace ccdb::cqa {

namespace {

/// A node of `op` over `children` (null until the compiler attaches them).
template <typename... Children>
std::unique_ptr<PlanNode> MakeNode(PlanNode::Op op, Children... children) {
  auto node = std::make_unique<PlanNode>();
  node->op = op;
  (node->children.push_back(std::move(children)), ...);
  return node;
}

}  // namespace

std::unique_ptr<PlanNode> PlanNode::Scan(std::string relation) {
  auto node = MakeNode(Op::kScan);
  node->relation_name = std::move(relation);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Select(std::unique_ptr<PlanNode> child,
                                           Predicate predicate) {
  auto node = MakeNode(Op::kSelect, std::move(child));
  node->predicate = std::move(predicate);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Project(std::unique_ptr<PlanNode> child,
                                            std::vector<std::string> attrs) {
  auto node = MakeNode(Op::kProject, std::move(child));
  node->attrs = std::move(attrs);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Join(std::unique_ptr<PlanNode> lhs,
                                         std::unique_ptr<PlanNode> rhs) {
  return MakeNode(Op::kJoin, std::move(lhs), std::move(rhs));
}

std::unique_ptr<PlanNode> PlanNode::UnionOf(std::unique_ptr<PlanNode> lhs,
                                            std::unique_ptr<PlanNode> rhs) {
  return MakeNode(Op::kUnion, std::move(lhs), std::move(rhs));
}

std::unique_ptr<PlanNode> PlanNode::DifferenceOf(
    std::unique_ptr<PlanNode> lhs, std::unique_ptr<PlanNode> rhs) {
  return MakeNode(Op::kDifference, std::move(lhs), std::move(rhs));
}

std::unique_ptr<PlanNode> PlanNode::RenameAttr(
    std::unique_ptr<PlanNode> child, std::string from, std::string to) {
  auto node = MakeNode(Op::kRename, std::move(child));
  node->rename_from = std::move(from);
  node->rename_to = std::move(to);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Normalize(
    std::unique_ptr<PlanNode> child) {
  return MakeNode(Op::kNormalize, std::move(child));
}

std::unique_ptr<PlanNode> PlanNode::BufferJoin(std::unique_ptr<PlanNode> lhs,
                                               std::unique_ptr<PlanNode> rhs,
                                               Rational distance,
                                               std::string id_attr) {
  auto node = MakeNode(Op::kBufferJoin, std::move(lhs), std::move(rhs));
  node->distance = std::move(distance);
  node->id_attr = std::move(id_attr);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::KNearest(std::unique_ptr<PlanNode> lhs,
                                             std::unique_ptr<PlanNode> rhs,
                                             size_t k, std::string id_attr) {
  auto node = MakeNode(Op::kKNearest, std::move(lhs), std::move(rhs));
  node->k = k;
  node->id_attr = std::move(id_attr);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Shared(std::string step,
                                           std::shared_ptr<PlanNode> body,
                                           Schema schema) {
  auto node = MakeNode(Op::kShared);
  node->relation_name = std::move(step);
  node->shared = std::move(body);
  node->schema = std::move(schema);
  return node;
}

namespace {

std::string Render(const PlanNode& plan, int indent,
                   std::set<const PlanNode*>* rendered) {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += plan.Label();
  for (const auto& child : plan.children) {
    out += "\n" + Render(*child, indent + 1, rendered);
  }
  if (plan.shared != nullptr && rendered->insert(plan.shared.get()).second) {
    out += "\n" + Render(*plan.shared, indent + 1, rendered);
  }
  return out;
}

}  // namespace

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto node = std::make_unique<PlanNode>();
  node->op = op;
  node->relation_name = relation_name;
  node->predicate = predicate;
  node->attrs = attrs;
  node->rename_from = rename_from;
  node->rename_to = rename_to;
  node->distance = distance;
  node->k = k;
  node->id_attr = id_attr;
  node->shared = shared;
  node->schema = schema;
  node->values = values;
  for (const auto& child : children) {
    node->children.push_back(child->Clone());
  }
  return node;
}

std::string PlanNode::Label() const {
  switch (op) {
    case Op::kScan:
      return "Scan " + relation_name;
    case Op::kSelect:
      return "Select [" + predicate.ToString() + "]";
    case Op::kProject: {
      std::string out = "Project [";
      for (size_t i = 0; i < attrs.size(); ++i) {
        if (i) out += ", ";
        out += attrs[i];
      }
      return out + "]";
    }
    case Op::kJoin:
      return "Join";
    case Op::kUnion:
      return "Union";
    case Op::kDifference:
      return "Difference";
    case Op::kRename:
      return "Rename " + rename_from + " -> " + rename_to;
    case Op::kNormalize:
      return "Normalize";
    case Op::kBufferJoin:
      return "BufferJoin [within " + distance.ToString() + " using " +
             id_attr + "]";
    case Op::kKNearest:
      return "KNearest [k " + std::to_string(k) + " using " + id_attr + "]";
    case Op::kShared:
      return "Shared " + relation_name;
    case Op::kValues:
      return "Values " + values->schema().ToString();
  }
  return "?";
}

std::string PlanNode::ToString(int indent) const {
  std::set<const PlanNode*> rendered;
  return Render(*this, indent, &rendered);
}

Result<Schema> OutputSchema(const PlanNode& plan,
                            const std::vector<Schema>& inputs,
                            const Database& db) {
  switch (plan.op) {
    case PlanNode::Op::kScan: {
      CCDB_ASSIGN_OR_RETURN(const Relation* rel, db.Get(plan.relation_name));
      return rel->schema();
    }
    case PlanNode::Op::kShared:
      return plan.schema;
    case PlanNode::Op::kValues:
      return plan.values->schema();
    case PlanNode::Op::kSelect:
      CCDB_RETURN_IF_ERROR(ValidatePredicate(inputs[0], plan.predicate));
      return inputs[0];
    case PlanNode::Op::kNormalize:
      return inputs[0];
    case PlanNode::Op::kProject:
      return inputs[0].Project(plan.attrs);
    case PlanNode::Op::kJoin:
      return inputs[0].NaturalJoin(inputs[1]);
    case PlanNode::Op::kUnion:
    case PlanNode::Op::kDifference:
      if (inputs[0] != inputs[1]) {
        return Status::InvalidArgument(
            std::string(plan.op == PlanNode::Op::kUnion ? "union"
                                                        : "difference") +
            " requires identical schemas: " + inputs[0].ToString() + " vs " +
            inputs[1].ToString());
      }
      return inputs[0];
    case PlanNode::Op::kRename:
      return inputs[0].Rename(plan.rename_from, plan.rename_to);
    case PlanNode::Op::kBufferJoin:
    case PlanNode::Op::kKNearest:
      for (const Schema& input : inputs) {
        CCDB_RETURN_IF_ERROR(FeatureSet::CheckSchema(input, plan.id_attr));
      }
      return PairSchema();
  }
  return Status::Internal("unknown plan op");
}

Result<Schema> InferSchema(const PlanNode& plan, const Database& db) {
  std::vector<Schema> inputs;
  inputs.reserve(plan.children.size());
  for (const auto& child : plan.children) {
    CCDB_ASSIGN_OR_RETURN(Schema schema, InferSchema(*child, db));
    inputs.push_back(std::move(schema));
  }
  return OutputSchema(plan, inputs, db);
}

namespace {

/// An operator's output: owned, or borrowed from the catalog (a scan), the
/// plan (a constant) or the memo of shared steps. Operators only read their
/// inputs, so a scan hands them the catalog's relation instead of a copy.
class Output {
 public:
  explicit Output(const Relation* borrowed) : rel_(borrowed) {}
  explicit Output(Relation owned)
      : owned_(std::make_unique<Relation>(std::move(owned))),
        rel_(owned_.get()) {}

  const Relation& operator*() const { return *rel_; }
  const Relation* operator->() const { return rel_; }

  /// The relation by value: moved out when owned, copied when borrowed.
  Relation Take() && { return owned_ ? std::move(*owned_) : *rel_; }

 private:
  std::unique_ptr<Relation> owned_;
  const Relation* rel_;
};

/// One execution's results of its shared steps, keyed by shared subplan.
using Memo = std::map<const PlanNode*, Output>;

/// Applies a computing operator to its evaluated inputs.
Result<Relation> Compute(const PlanNode& plan, std::vector<Output>& inputs) {
  switch (plan.op) {
    case PlanNode::Op::kSelect:
      return Select(*inputs[0], plan.predicate);
    case PlanNode::Op::kProject:
      return Project(*inputs[0], plan.attrs);
    case PlanNode::Op::kJoin:
      return NaturalJoin(*inputs[0], *inputs[1]);
    case PlanNode::Op::kUnion:
      return Union(*inputs[0], *inputs[1]);
    case PlanNode::Op::kDifference:
      return Difference(*inputs[0], *inputs[1]);
    case PlanNode::Op::kRename:
      return Rename(*inputs[0], plan.rename_from, plan.rename_to);
    case PlanNode::Op::kNormalize: {
      Relation out = std::move(inputs[0]).Take();
      out.Normalize();
      out.RemoveSubsumed();
      return out;
    }
    case PlanNode::Op::kBufferJoin:
    case PlanNode::Op::kKNearest: {
      CCDB_ASSIGN_OR_RETURN(FeatureSet lhs,
                            FeatureSet::FromRelation(*inputs[0], plan.id_attr));
      CCDB_ASSIGN_OR_RETURN(FeatureSet rhs,
                            FeatureSet::FromRelation(*inputs[1], plan.id_attr));
      if (plan.op == PlanNode::Op::kKNearest) return KNearest(lhs, rhs, plan.k);
      return BufferJoin(lhs, rhs, plan.distance);
    }
    case PlanNode::Op::kScan:
    case PlanNode::Op::kShared:
    case PlanNode::Op::kValues:
      break;
  }
  return Status::Internal("not a computing plan op");
}

/// The node's own output from its evaluated inputs.
Result<Output> Evaluate(const PlanNode& plan, const Database& db, Memo* memo,
                        std::vector<Output>& inputs) {
  if (plan.op == PlanNode::Op::kScan) {
    CCDB_ASSIGN_OR_RETURN(const Relation* rel, db.Get(plan.relation_name));
    return Output(rel);
  }
  if (plan.op == PlanNode::Op::kValues) return Output(plan.values.get());
  if (plan.op == PlanNode::Op::kShared) {
    auto it = memo->find(plan.shared.get());
    if (it == memo->end()) {
      it = memo->emplace(plan.shared.get(), std::move(inputs[0])).first;
    }
    return Output(&*it->second);
  }
  CCDB_ASSIGN_OR_RETURN(Relation out, Compute(plan, inputs));
  return Output(std::move(out));
}

/// Bottom-up evaluation, with spans when `trace` is non-null: one span
/// per evaluated node, with inclusive wall time, exclusive self time and
/// counter deltas (snapshotted around the node's own operator, after its
/// inputs ran), and tuple flow. A shared subplan is an input of its first
/// reference only; later references read the memo.
Result<Output> Run(const PlanNode& plan, const Database& db, Memo* memo,
                   obs::TraceNode* trace) {
  CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
  std::chrono::steady_clock::time_point start;
  if (trace != nullptr) start = std::chrono::steady_clock::now();
  double inputs_wall_us = 0;
  std::vector<Output> inputs;
  inputs.reserve(plan.children.size());
  auto run_input = [&](const PlanNode& input) -> Status {
    obs::TraceNode* span =
        trace != nullptr ? &trace->children.emplace_back() : nullptr;
    CCDB_ASSIGN_OR_RETURN(Output rel, Run(input, db, memo, span));
    if (span != nullptr) {
      inputs_wall_us += span->wall_us;
      trace->tuples_in += rel->size();
    }
    inputs.push_back(std::move(rel));
    return Status::OK();
  };
  for (const auto& child : plan.children) {
    CCDB_RETURN_IF_ERROR(run_input(*child));
  }
  if (plan.op == PlanNode::Op::kShared && !memo->count(plan.shared.get())) {
    CCDB_RETURN_IF_ERROR(run_input(*plan.shared));
  }
  obs::LayerCounters before;
  if (trace != nullptr) before = obs::ActiveSnapshot();
  CCDB_ASSIGN_OR_RETURN(Output out, Evaluate(plan, db, memo, inputs));
  if (trace != nullptr) {
    trace->counters = obs::ActiveSnapshot() - before;
    trace->tuples_out = out->size();
    trace->wall_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    trace->self_us = std::max(0.0, trace->wall_us - inputs_wall_us);
  }
  return out;
}

/// Fills in span labels after the clocks have stopped — label rendering
/// (predicate text, attribute lists) must not count against the timed
/// regions. Tolerates a trace tree cut short by an execution error.
void AssignLabels(const PlanNode& plan, obs::TraceNode* trace) {
  trace->label = plan.Label();
  const size_t n = std::min(plan.children.size(), trace->children.size());
  for (size_t i = 0; i < n; ++i) {
    AssignLabels(*plan.children[i], &trace->children[i]);
  }
  if (plan.shared != nullptr && !trace->children.empty()) {
    AssignLabels(*plan.shared, &trace->children[0]);
  }
}

}  // namespace

Result<Relation> Execute(const PlanNode& plan, const Database& db) {
  Memo memo;
  CCDB_ASSIGN_OR_RETURN(Output out, Run(plan, db, &memo, nullptr));
  return std::move(out).Take();
}

Result<Relation> ExecuteTraced(const PlanNode& plan, const Database& db,
                               obs::TraceNode* root) {
  std::optional<obs::CounterScope> scope;
  if (!obs::TracingActive()) scope.emplace();
  Memo memo;
  Result<Output> out = Run(plan, db, &memo, root);
  AssignLabels(plan, root);
  if (!out.ok()) return out.status();
  return std::move(*out).Take();
}

namespace {

/// Attributes mentioned by one linear atom.
std::set<std::string> AtomAttrs(const Constraint& c) { return c.Variables(); }

std::set<std::string> AtomAttrs(const StringAtom& atom) {
  std::set<std::string> attrs{atom.attribute};
  if (atom.kind == StringAtom::Kind::kAttrEqualsAttr) {
    attrs.insert(atom.attribute2);
  }
  return attrs;
}

bool CoveredBy(const std::set<std::string>& attrs, const Schema& schema) {
  for (const std::string& attr : attrs) {
    if (!schema.Has(attr)) return false;
  }
  return true;
}

/// Renames attribute `to` back to `from` inside a predicate (for pushing a
/// selection through ρ_{to|from}).
Predicate RenamePredicate(const Predicate& pred, const std::string& to,
                          const std::string& from) {
  Predicate out;
  for (const Constraint& c : pred.linear) {
    out.linear.push_back(c.Mentions(to) ? c.RenameVariable(to, from) : c);
  }
  for (StringAtom atom : pred.strings) {
    if (atom.attribute == to) atom.attribute = from;
    if (atom.kind == StringAtom::Kind::kAttrEqualsAttr &&
        atom.attribute2 == to) {
      atom.attribute2 = from;
    }
    out.strings.push_back(std::move(atom));
  }
  return out;
}

/// Projection-specific rewrites. Returns the (possibly replaced) node.
std::unique_ptr<PlanNode> RewriteProject(std::unique_ptr<PlanNode> node,
                                         const Database& db, bool* changed) {
  PlanNode& child = *node->children[0];

  // Rule: identity projection vanishes.
  if (auto child_schema = InferSchema(child, db); child_schema.ok()) {
    if (node->attrs == child_schema->Names()) {
      *changed = true;
      return std::move(node->children[0]);
    }
  }

  // Rule: compose adjacent projections (π_X ∘ π_Y = π_X when X ⊆ Y,
  // which schema validity guarantees).
  if (child.op == PlanNode::Op::kProject) {
    auto composed = PlanNode::Project(std::move(child.children[0]),
                                      node->attrs);
    *changed = true;
    return composed;
  }

  // Rule: push projection below union.
  if (child.op == PlanNode::Op::kUnion) {
    auto lhs = PlanNode::Project(std::move(child.children[0]), node->attrs);
    auto rhs = PlanNode::Project(std::move(child.children[1]), node->attrs);
    *changed = true;
    return PlanNode::UnionOf(std::move(lhs), std::move(rhs));
  }

  // NOTE: no π/ς swap here — the select-side rule canonicalizes to
  // "selection below projection" (selection first shrinks the input of
  // the expensive FM projection); a mirror rule would oscillate.
  //
  // Nor does a projection narrow a join's inputs (π_X(A ⋈ B) keeping only
  // X plus the join attributes on each side): that runs FM on every input
  // tuple instead of on the few survivors of a selective join.

  return node;
}

/// One pass of local rewrites; sets `changed` when anything fired.
std::unique_ptr<PlanNode> RewriteOnce(std::unique_ptr<PlanNode> node,
                                      const Database& db, bool* changed) {
  for (auto& child : node->children) {
    child = RewriteOnce(std::move(child), db, changed);
  }
  if (node->op == PlanNode::Op::kProject) {
    return RewriteProject(std::move(node), db, changed);
  }
  if (node->op != PlanNode::Op::kSelect) return node;

  // Rule: empty selection vanishes.
  if (node->predicate.empty()) {
    *changed = true;
    return std::move(node->children[0]);
  }
  PlanNode& child = *node->children[0];

  // Rule: merge adjacent selections.
  if (child.op == PlanNode::Op::kSelect) {
    child.predicate = Predicate::And(std::move(node->predicate),
                                     child.predicate);
    *changed = true;
    return std::move(node->children[0]);
  }

  // Rule: push selection below union (both branches).
  if (child.op == PlanNode::Op::kUnion) {
    auto lhs = PlanNode::Select(std::move(child.children[0]),
                                node->predicate);
    auto rhs = PlanNode::Select(std::move(child.children[1]),
                                node->predicate);
    *changed = true;
    return PlanNode::UnionOf(std::move(lhs), std::move(rhs));
  }

  // Rule: push selection below projection — always valid (a well-typed
  // predicate only mentions surviving attributes) and always beneficial
  // (selection shrinks the input of the expensive FM projection).
  if (child.op == PlanNode::Op::kProject) {
    auto selected = PlanNode::Select(std::move(child.children[0]),
                                     std::move(node->predicate));
    *changed = true;
    return PlanNode::Project(std::move(selected), child.attrs);
  }

  // Rule: push selection through rename (rewrite the predicate).
  if (child.op == PlanNode::Op::kRename) {
    Predicate rewritten = RenamePredicate(node->predicate, child.rename_to,
                                          child.rename_from);
    auto inner = PlanNode::Select(std::move(child.children[0]),
                                  std::move(rewritten));
    *changed = true;
    return PlanNode::RenameAttr(std::move(inner), child.rename_from,
                                child.rename_to);
  }

  // Rule: partition selection atoms across a join.
  if (child.op == PlanNode::Op::kJoin) {
    auto lhs_schema = InferSchema(*child.children[0], db);
    auto rhs_schema = InferSchema(*child.children[1], db);
    if (!lhs_schema.ok() || !rhs_schema.ok()) return node;  // let Execute report
    Predicate lhs_pred, rhs_pred, rest;
    for (const Constraint& c : node->predicate.linear) {
      auto attrs = AtomAttrs(c);
      if (CoveredBy(attrs, *lhs_schema)) {
        lhs_pred.linear.push_back(c);
      } else if (CoveredBy(attrs, *rhs_schema)) {
        rhs_pred.linear.push_back(c);
      } else {
        rest.linear.push_back(c);
      }
    }
    for (const StringAtom& atom : node->predicate.strings) {
      auto attrs = AtomAttrs(atom);
      if (CoveredBy(attrs, *lhs_schema)) {
        lhs_pred.strings.push_back(atom);
      } else if (CoveredBy(attrs, *rhs_schema)) {
        rhs_pred.strings.push_back(atom);
      } else {
        rest.strings.push_back(atom);
      }
    }
    if (lhs_pred.empty() && rhs_pred.empty()) return node;  // nothing to push
    *changed = true;
    auto lhs = std::move(child.children[0]);
    auto rhs = std::move(child.children[1]);
    if (!lhs_pred.empty()) {
      lhs = PlanNode::Select(std::move(lhs), std::move(lhs_pred));
    }
    if (!rhs_pred.empty()) {
      rhs = PlanNode::Select(std::move(rhs), std::move(rhs_pred));
    }
    auto join = PlanNode::Join(std::move(lhs), std::move(rhs));
    if (rest.empty()) return join;
    return PlanNode::Select(std::move(join), std::move(rest));
  }
  return node;
}

}  // namespace

namespace {

std::unique_ptr<PlanNode> OptimizeTree(std::unique_ptr<PlanNode> plan,
                                       const Database& db,
                                       std::set<const PlanNode*>* done);

/// Optimizes, in place and once each, the shared subplans `plan` reaches.
void OptimizeShared(PlanNode* plan, const Database& db,
                    std::set<const PlanNode*>* done) {
  for (auto& child : plan->children) OptimizeShared(child.get(), db, done);
  if (plan->shared != nullptr && done->insert(plan->shared.get()).second) {
    *plan->shared = std::move(*OptimizeTree(
        std::make_unique<PlanNode>(std::move(*plan->shared)), db, done));
  }
}

std::unique_ptr<PlanNode> OptimizeTree(std::unique_ptr<PlanNode> plan,
                                       const Database& db,
                                       std::set<const PlanNode*>* done) {
  OptimizeShared(plan.get(), db, done);
  bool changed = true;
  int guard = 0;
  while (changed && guard++ < 32 && obs::CheckGovernance().ok()) {
    changed = false;
    plan = RewriteOnce(std::move(plan), db, &changed);
  }
  return plan;
}

}  // namespace

std::unique_ptr<PlanNode> Optimize(std::unique_ptr<PlanNode> plan,
                                   const Database& db) {
  std::set<const PlanNode*> done;
  return OptimizeTree(std::move(plan), db, &done);
}

}  // namespace ccdb::cqa
