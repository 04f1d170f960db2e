#include "core/calculus.h"

#include <optional>

namespace ccdb::cqc {

FormulaPtr Formula::Atom(Constraint constraint) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = Kind::kAtom;
  f->constraint_ = std::make_shared<const Constraint>(std::move(constraint));
  return f;
}

FormulaPtr Formula::StrAtom(StringAtom atom) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = Kind::kStrAtom;
  f->string_atom_ = std::make_shared<const StringAtom>(std::move(atom));
  return f;
}

FormulaPtr Formula::Rel(std::string relation,
                        std::vector<std::string> vars) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = Kind::kRelation;
  f->relation_ = std::move(relation);
  f->vars_ = std::move(vars);
  return f;
}

FormulaPtr Formula::And(FormulaPtr lhs, FormulaPtr rhs) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = Kind::kAnd;
  f->lhs_ = std::move(lhs);
  f->rhs_ = std::move(rhs);
  return f;
}

FormulaPtr Formula::Or(FormulaPtr lhs, FormulaPtr rhs) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = Kind::kOr;
  f->lhs_ = std::move(lhs);
  f->rhs_ = std::move(rhs);
  return f;
}

FormulaPtr Formula::Not(FormulaPtr inner) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = Kind::kNot;
  f->lhs_ = std::move(inner);
  return f;
}

FormulaPtr Formula::Exists(std::string var, FormulaPtr inner) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = Kind::kExists;
  f->bound_var_ = std::move(var);
  f->lhs_ = std::move(inner);
  return f;
}

FormulaPtr Formula::ExistsAll(const std::vector<std::string>& vars,
                              FormulaPtr inner) {
  FormulaPtr f = std::move(inner);
  for (size_t i = vars.size(); i-- > 0;) {
    f = Exists(vars[i], std::move(f));
  }
  return f;
}

std::set<std::string> Formula::FreeVariables() const {
  switch (kind_) {
    case Kind::kAtom:
      return constraint_->Variables();
    case Kind::kStrAtom: {
      std::set<std::string> out{string_atom_->attribute};
      if (string_atom_->kind == StringAtom::Kind::kAttrEqualsAttr) {
        out.insert(string_atom_->attribute2);
      }
      return out;
    }
    case Kind::kRelation:
      return std::set<std::string>(vars_.begin(), vars_.end());
    case Kind::kAnd:
    case Kind::kOr: {
      std::set<std::string> out = lhs_->FreeVariables();
      auto r = rhs_->FreeVariables();
      out.insert(r.begin(), r.end());
      return out;
    }
    case Kind::kNot:
      return lhs_->FreeVariables();
    case Kind::kExists: {
      std::set<std::string> out = lhs_->FreeVariables();
      out.erase(bound_var_);
      return out;
    }
  }
  return {};
}

std::string Formula::ToString() const {
  switch (kind_) {
    case Kind::kAtom:
      return constraint_->ToPrettyString();
    case Kind::kStrAtom:
      return string_atom_->ToString();
    case Kind::kRelation: {
      std::string out = relation_ + "(";
      for (size_t i = 0; i < vars_.size(); ++i) {
        if (i) out += ", ";
        out += vars_[i];
      }
      return out + ")";
    }
    case Kind::kAnd:
      return "(" + lhs_->ToString() + " AND " + rhs_->ToString() + ")";
    case Kind::kOr:
      return "(" + lhs_->ToString() + " OR " + rhs_->ToString() + ")";
    case Kind::kNot:
      return "NOT " + lhs_->ToString();
    case Kind::kExists:
      return "EXISTS " + bound_var_ + ". " + lhs_->ToString();
  }
  return "?";
}

namespace {

using cqa::PlanNode;

/// A compiled subformula: its plan and the schema that plan produces.
struct Compiled {
  std::unique_ptr<PlanNode> plan;
  Schema schema;
};

/// Types `node`, built with null children, from `inputs`' schemas
/// (cqa::OutputSchema) and hands it their plans as its children.
Result<Compiled> Typed(std::unique_ptr<PlanNode> node,
                       std::initializer_list<Compiled*> inputs,
                       const Database& db) {
  std::vector<Schema> schemas;
  for (const Compiled* input : inputs) schemas.push_back(input->schema);
  CCDB_ASSIGN_OR_RETURN(Schema schema, cqa::OutputSchema(*node, schemas, db));
  size_t i = 0;
  for (Compiled* input : inputs) node->children[i++] = std::move(input->plan);
  return Compiled{std::move(node), std::move(schema)};
}

/// A `Values` leaf of one tuple over `attrs`: `tuple`'s values, null on the
/// other relational attributes, broad on the constraint ones. Over
/// constraint attributes it is their universe; over none, TRUE.
Result<Compiled> Constant(std::vector<Attribute> attrs, Tuple tuple = Tuple()) {
  CCDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  auto rel = std::make_shared<Relation>(schema);
  CCDB_RETURN_IF_ERROR(rel->Insert(std::move(tuple)));
  Compiled out{std::make_unique<PlanNode>(), std::move(schema)};
  out.plan->op = PlanNode::Op::kValues;
  out.plan->values = std::move(rel);
  return out;
}

/// A database atom R(v1, ..., vk): positional renames, with
/// repeated-variable equality handling.
Result<Compiled> CompileRelationAtom(const Formula& f, const Database& db) {
  CCDB_ASSIGN_OR_RETURN(Compiled current,
                        Typed(PlanNode::Scan(f.relation()), {}, db));
  if (f.vars().size() != current.schema.arity()) {
    return Status::InvalidArgument(
        f.relation() + " has arity " + std::to_string(current.schema.arity()) +
        ", got " + std::to_string(f.vars().size()) + " variables");
  }
  // Variables that are the attribute names themselves, in order, bind
  // nothing: the atom is the bare scan.
  if (f.vars() == current.schema.Names()) return current;
  // Rename every attribute to a unique placeholder first (the relation's
  // own attribute names must not collide with the target variables).
  const std::vector<Attribute> attrs = current.schema.attributes();
  std::vector<std::string> temps;
  for (size_t i = 0; i < attrs.size(); ++i) {
    temps.push_back("#cqc" + std::to_string(i));
    CCDB_ASSIGN_OR_RETURN(
        current, Typed(PlanNode::RenameAttr(nullptr, attrs[i].name, temps[i]),
                       {&current}, db));
  }
  // Repeated variables become equality selections on the placeholders.
  Predicate equalities;
  std::map<std::string, size_t> first_position;
  std::vector<std::string> keep;
  for (size_t i = 0; i < f.vars().size(); ++i) {
    auto [it, inserted] = first_position.emplace(f.vars()[i], i);
    if (inserted) {
      keep.push_back(temps[i]);
    } else if (attrs[i].domain == AttributeDomain::kString) {
      equalities.strings.push_back(
          StringAtom::EqualsAttr(temps[it->second], temps[i]));
    } else {
      equalities.linear.push_back(
          Constraint::Eq(LinearExpr::Variable(temps[it->second]),
                         LinearExpr::Variable(temps[i])));
    }
  }
  if (!equalities.empty()) {
    CCDB_ASSIGN_OR_RETURN(
        current, Typed(PlanNode::Select(nullptr, std::move(equalities)),
                       {&current}, db));
    CCDB_ASSIGN_OR_RETURN(
        current, Typed(PlanNode::Project(nullptr, keep), {&current}, db));
  }
  // Placeholders -> variables.
  for (const auto& [var, position] : first_position) {
    CCDB_ASSIGN_OR_RETURN(
        current, Typed(PlanNode::RenameAttr(nullptr, temps[position], var),
                       {&current}, db));
  }
  return current;
}

Result<Compiled> CompileFormula(const Formula& f, const Database& db);

/// Flattens an AND tree into conjuncts.
void CollectConjuncts(const Formula& f, std::vector<const Formula*>* out) {
  if (f.kind() == Formula::Kind::kAnd) {
    CollectConjuncts(*f.lhs(), out);
    CollectConjuncts(*f.rhs(), out);
    return;
  }
  out->push_back(&f);
}

/// A conjunction (or a lone atom): a join chain of the relation-valued
/// conjuncts, extended with universal variables for uncovered atom
/// variables, under one selection of the atoms.
Result<Compiled> CompileConjunction(const Formula& f, const Database& db) {
  std::vector<const Formula*> conjuncts;
  CollectConjuncts(f, &conjuncts);
  Predicate atoms;
  std::vector<const Formula*> relational;
  std::set<std::string> atom_vars;
  for (const Formula* c : conjuncts) {
    if (c->kind() == Formula::Kind::kAtom) {
      atoms.linear.push_back(c->constraint());
    } else if (c->kind() == Formula::Kind::kStrAtom) {
      atoms.strings.push_back(c->string_atom());
    } else {
      relational.push_back(c);
      continue;
    }
    std::set<std::string> vars = c->FreeVariables();
    atom_vars.insert(vars.begin(), vars.end());
  }

  std::optional<Compiled> joined;
  auto join = [&](Compiled rel) -> Status {
    if (joined) {
      CCDB_ASSIGN_OR_RETURN(
          rel, Typed(PlanNode::Join(nullptr, nullptr), {&*joined, &rel}, db));
    }
    joined = std::move(rel);
    return Status::OK();
  };
  for (const Formula* c : relational) {
    CCDB_ASSIGN_OR_RETURN(Compiled rel, CompileFormula(*c, db));
    CCDB_RETURN_IF_ERROR(join(std::move(rel)));
  }

  // Variables the atoms mention but no relation binds.
  std::set<std::string> missing;
  for (const std::string& var : atom_vars) {
    if (!joined || !joined->schema.Has(var)) missing.insert(var);
  }
  // String atoms need bound string attributes — except a positive literal
  // equality, which denotes a singleton constant.
  for (auto it = atoms.strings.begin(); it != atoms.strings.end();) {
    const StringAtom& atom = *it;
    if (joined && joined->schema.Has(atom.attribute)) {
      ++it;
    } else if (atom.kind == StringAtom::Kind::kAttrEqualsLiteral &&
               !atom.negated) {
      Tuple t;
      t.SetValue(atom.attribute, Value::String(atom.literal));
      CCDB_ASSIGN_OR_RETURN(
          Compiled singleton,
          Constant({Schema::RelationalString(atom.attribute)}, std::move(t)));
      CCDB_RETURN_IF_ERROR(join(std::move(singleton)));
      missing.erase(atom.attribute);
      it = atoms.strings.erase(it);
    } else {
      return Status::Unsupported(
          "string variable '" + atom.attribute +
          "' is not bound by any relation atom (unsafe)");
    }
  }
  // Any leftover missing variable is rational: cover it with the universe,
  // which over no variables is TRUE, the conjunction of nothing.
  if (!missing.empty() || !joined) {
    std::vector<Attribute> universe;
    for (const std::string& var : missing) {
      universe.push_back(Schema::ConstraintRational(var));
    }
    CCDB_ASSIGN_OR_RETURN(Compiled rel, Constant(std::move(universe)));
    CCDB_RETURN_IF_ERROR(join(std::move(rel)));
  }
  if (atoms.empty()) return std::move(*joined);
  return Typed(PlanNode::Select(nullptr, std::move(atoms)), {&*joined}, db);
}

/// A disjunction: the union of both branches, each padded to the other's
/// variables by a join with a constant (missing constraint attributes are
/// broad, missing relational ones null) and projected into name order.
Result<Compiled> CompileOr(const Formula& f, const Database& db) {
  CCDB_ASSIGN_OR_RETURN(Compiled lhs, CompileFormula(*f.lhs(), db));
  CCDB_ASSIGN_OR_RETURN(Compiled rhs, CompileFormula(*f.rhs(), db));
  std::map<std::string, Attribute> merged;
  for (const Compiled* side : {&lhs, &rhs}) {
    for (const Attribute& attr : side->schema.attributes()) {
      auto [it, inserted] = merged.emplace(attr.name, attr);
      if (!inserted && it->second != attr) {
        return Status::InvalidArgument(
            "variable '" + attr.name +
            "' has conflicting kinds across OR branches");
      }
    }
  }
  std::vector<std::string> names;
  for (const auto& [name, attr] : merged) names.push_back(name);
  for (Compiled* side : {&lhs, &rhs}) {
    std::vector<Attribute> absent;
    for (const auto& [name, attr] : merged) {
      if (!side->schema.Has(name)) absent.push_back(attr);
    }
    if (!absent.empty()) {
      CCDB_ASSIGN_OR_RETURN(Compiled pad, Constant(std::move(absent)));
      CCDB_ASSIGN_OR_RETURN(
          *side, Typed(PlanNode::Join(nullptr, nullptr), {side, &pad}, db));
    }
    CCDB_ASSIGN_OR_RETURN(
        *side, Typed(PlanNode::Project(nullptr, names), {side}, db));
  }
  return Typed(PlanNode::UnionOf(nullptr, nullptr), {&lhs, &rhs}, db);
}

Result<Compiled> CompileFormula(const Formula& f, const Database& db) {
  switch (f.kind()) {
    case Formula::Kind::kRelation:
      return CompileRelationAtom(f, db);
    case Formula::Kind::kAtom:
    case Formula::Kind::kStrAtom:
    case Formula::Kind::kAnd:
      return CompileConjunction(f, db);
    case Formula::Kind::kOr:
      return CompileOr(f, db);
    case Formula::Kind::kNot: {
      // The difference from the universe of the inner formula's variables,
      // which must all be constraint variables.
      CCDB_ASSIGN_OR_RETURN(Compiled inner, CompileFormula(*f.lhs(), db));
      for (const Attribute& attr : inner.schema.attributes()) {
        if (attr.kind != AttributeKind::kConstraint) {
          return Status::Unsupported(
              "negation over relational variable '" + attr.name +
              "' is unsafe (infinite uninterpreted domain)");
        }
      }
      CCDB_ASSIGN_OR_RETURN(Compiled universe,
                            Constant(inner.schema.attributes()));
      return Typed(PlanNode::DifferenceOf(nullptr, nullptr),
                   {&universe, &inner}, db);
    }
    case Formula::Kind::kExists: {
      CCDB_ASSIGN_OR_RETURN(Compiled inner, CompileFormula(*f.lhs(), db));
      if (!inner.schema.Has(f.bound_var())) {
        return inner;  // vacuous quantification
      }
      std::vector<std::string> keep;
      for (const Attribute& attr : inner.schema.attributes()) {
        if (attr.name != f.bound_var()) keep.push_back(attr.name);
      }
      return Typed(PlanNode::Project(nullptr, std::move(keep)), {&inner}, db);
    }
  }
  return Status::Internal("unknown formula kind");
}

}  // namespace

Result<std::unique_ptr<cqa::PlanNode>> Compile(const Formula& formula,
                                               const Database& db) {
  CCDB_ASSIGN_OR_RETURN(Compiled compiled, CompileFormula(formula, db));
  return std::move(compiled.plan);
}

Result<Relation> Evaluate(const Formula& formula, const Database& db) {
  CCDB_ASSIGN_OR_RETURN(std::unique_ptr<cqa::PlanNode> plan,
                        Compile(formula, db));
  return cqa::Execute(*cqa::Optimize(std::move(plan), db), db);
}

}  // namespace ccdb::cqc
