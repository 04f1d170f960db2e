#ifndef CCDB_CORE_PLAN_H_
#define CCDB_CORE_PLAN_H_

/// \file plan.h
/// Logical CQA plans, rule-based optimization, and evaluation.
///
/// Figure 1 of the paper places CQA as the middle layer of a constraint
/// database system: user queries are translated into algebra expressions,
/// *optimized* ("through the use of indexing and through operator
/// reordering"), and then evaluated bottom-up. `PlanNode` is that algebra
/// expression tree — every step script compiles to one (lang/compile.h),
/// and `Execute` is the one executor that runs it. `Optimize` applies the
/// classical reorderings reinterpreted for constraint relations:
///
///  - adjacent selections merge (ς_a(ς_b(R)) = ς_{a∧b}(R));
///  - selections push below unions, projections and through renames;
///  - selection atoms push below a join to whichever side covers their
///    attributes (atoms spanning both sides stay above);
///  - projections compose, push below unions, and vanish when they keep
///    every attribute; empty selections vanish.
///
/// Scans lend the catalog's relations to the operators above them instead
/// of copying them; the caller keeps the catalog alive (a pinned snapshot)
/// for the duration of the execution. A step read more than once is a
/// `kShared` node: every reference points at one subplan, evaluated once
/// per execution, and rewrites never reach into it from above.
/// Optimization never changes results (verified by randomized tests),
/// only the amount of intermediate work.

#include <memory>
#include <string>
#include <vector>

#include "core/operators.h"
#include "data/database.h"
#include "num/rational.h"
#include "obs/trace.h"

namespace ccdb::cqa {

/// One node of a logical CQA plan.
struct PlanNode {
  enum class Op {
    kScan,        ///< leaf: a named relation, borrowed from the catalog
    kSelect,      ///< predicate over the child
    kProject,     ///< attribute list over the child
    kJoin,        ///< natural join of two children
    kUnion,       ///< union of two children
    kDifference,  ///< difference of two children
    kRename,      ///< attribute rename over the child
    kNormalize,   ///< drop unsatisfiable, redundant and subsumed stores
    kBufferJoin,  ///< feature pairs of two children within `distance`
    kKNearest,    ///< each left feature's `k` nearest right features
    kShared,      ///< a step read more than once: one subplan, run once
    kValues,      ///< leaf: a constant relation carried by the plan
  };

  Op op;
  std::string relation_name;        ///< kScan; kShared: the step's name
  Predicate predicate;              ///< kSelect
  std::vector<std::string> attrs;   ///< kProject
  std::string rename_from;          ///< kRename
  std::string rename_to;            ///< kRename
  Rational distance;                ///< kBufferJoin
  size_t k = 0;                     ///< kKNearest
  std::string id_attr;              ///< kBufferJoin, kKNearest: feature id
  /// kShared: the step's subplan, owned jointly by every reference to it.
  /// It is not a child, so no rewrite above a reference changes it.
  std::shared_ptr<PlanNode> shared;
  /// kShared: the step's output schema, as the compiler typed it. Typing a
  /// reference reads it instead of walking the subplan again, so typing a
  /// plan costs its size, not the number of paths through its steps.
  Schema schema;
  std::shared_ptr<const Relation> values;  ///< kValues, shared by copies
  std::vector<std::unique_ptr<PlanNode>> children;

  /// Leaf scanning a stored relation.
  static std::unique_ptr<PlanNode> Scan(std::string relation);
  static std::unique_ptr<PlanNode> Select(std::unique_ptr<PlanNode> child,
                                          Predicate predicate);
  static std::unique_ptr<PlanNode> Project(std::unique_ptr<PlanNode> child,
                                           std::vector<std::string> attrs);
  static std::unique_ptr<PlanNode> Join(std::unique_ptr<PlanNode> lhs,
                                        std::unique_ptr<PlanNode> rhs);
  static std::unique_ptr<PlanNode> UnionOf(std::unique_ptr<PlanNode> lhs,
                                           std::unique_ptr<PlanNode> rhs);
  static std::unique_ptr<PlanNode> DifferenceOf(
      std::unique_ptr<PlanNode> lhs, std::unique_ptr<PlanNode> rhs);
  static std::unique_ptr<PlanNode> RenameAttr(std::unique_ptr<PlanNode> child,
                                              std::string from,
                                              std::string to);
  static std::unique_ptr<PlanNode> Normalize(std::unique_ptr<PlanNode> child);
  static std::unique_ptr<PlanNode> BufferJoin(std::unique_ptr<PlanNode> lhs,
                                              std::unique_ptr<PlanNode> rhs,
                                              Rational distance,
                                              std::string id_attr);
  static std::unique_ptr<PlanNode> KNearest(std::unique_ptr<PlanNode> lhs,
                                            std::unique_ptr<PlanNode> rhs,
                                            size_t k, std::string id_attr);
  /// A reference to the shared subplan `body` of step `step`, whose
  /// output schema is `schema`.
  static std::unique_ptr<PlanNode> Shared(std::string step,
                                          std::shared_ptr<PlanNode> body,
                                          Schema schema);

  /// Deep copy of the tree. A shared subplan is not copied: the copy
  /// references the same one (only Optimize rewrites it, and its rewrites
  /// keep its result).
  std::unique_ptr<PlanNode> Clone() const;

  /// One-node description without children, e.g. "Select [t >= 4]"
  /// (also used as the span label in execution traces).
  std::string Label() const;

  /// Indented one-node-per-line rendering, e.g.
  ///   Project [name]
  ///     Select [t >= 4]
  ///       Scan Hurricane
  /// A shared subplan is rendered under its first reference only.
  std::string ToString(int indent = 0) const;
};

/// The output schema the plan would produce against `db` (errors on
/// unknown relations / ill-typed operators — the same checks evaluation
/// performs, usable for validation before execution). A shared step was
/// typed when it was compiled; its recorded schema is not re-derived.
Result<Schema> InferSchema(const PlanNode& plan, const Database& db);

/// The schema `plan`'s own operator produces from its children's schemas
/// (`inputs`, in child order; empty for the leaves kScan, kShared and
/// kValues, which read `db`, the recorded step schema and the constant).
/// These are the typing rules InferSchema applies at every node; the
/// compiler applies them to each statement as it builds it, from its
/// operands' already-known schemas.
Result<Schema> OutputSchema(const PlanNode& plan,
                            const std::vector<Schema>& inputs,
                            const Database& db);

/// Evaluates the plan bottom-up: the one executor every script runs
/// through. Shared subplans run once per call.
Result<Relation> Execute(const PlanNode& plan, const Database& db);

/// Execute with spans on: records a per-operator span tree into `root` —
/// each node gets the operator label, inclusive wall time, exclusive self
/// time, tuple flow, and the layer-counter deltas attributable to that
/// operator alone. A shared subplan's spans sit under its first
/// reference. On failure (a governance trip included) `root` keeps the
/// partial tree of what ran. If no obs::CounterScope is active on this
/// thread, one is installed for the duration so standalone traces still
/// capture FM / index / buffer-pool work.
Result<Relation> ExecuteTraced(const PlanNode& plan, const Database& db,
                               obs::TraceNode* root);

/// Applies the rewrite rules to a fixpoint. Semantics-preserving. Each
/// shared subplan is optimized once, on its own. Polls governance once
/// per rewrite pass: once a deadline, budget or cancellation has tripped
/// it stops rewriting and returns the plan as it stands, which is still
/// correct — the executor's first check-point then reports the trip.
std::unique_ptr<PlanNode> Optimize(std::unique_ptr<PlanNode> plan,
                                   const Database& db);

}  // namespace ccdb::cqa

#endif  // CCDB_CORE_PLAN_H_
