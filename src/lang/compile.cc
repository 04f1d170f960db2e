#include "lang/compile.h"

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "lang/expr_parser.h"
#include "lang/lexer.h"

namespace ccdb::lang {

namespace {

using cqa::PlanNode;

/// A relation a statement reads: the latest earlier definition of the
/// name (an index into the steps) or, when there is none, the catalog's.
struct Operand {
  std::string name;
  std::optional<size_t> def;
};

/// One compiled statement. Its node is built with one null child per
/// operand; the children are attached once every statement is typed and
/// the reads of each definition are counted.
struct Step {
  std::string name;
  std::unique_ptr<PlanNode> node;
  std::vector<Operand> operands;
  std::vector<Schema> operand_schemas;
  Schema schema;
  size_t reads = 0;  ///< by steps on the way to the final step
  std::shared_ptr<PlanNode> shared;  ///< the node, when read more than once
};

/// Parses comparisons until (and consuming) the keyword `stop`.
Result<std::vector<ParsedComparison>> ParseComparisonsUntil(
    TokenStream* ts, const std::string& stop) {
  std::vector<ParsedComparison> out;
  while (true) {
    CCDB_ASSIGN_OR_RETURN(ParsedComparison cmp, ParseComparison(ts));
    out.push_back(std::move(cmp));
    if (ts->TrySymbol(",")) continue;
    CCDB_RETURN_IF_ERROR(ts->ExpectKeyword(stop));
    break;
  }
  return out;
}

/// Consumes a hyphenated operator keyword ("buffer-join", "k-nearest").
bool TryHyphenKeyword(TokenStream* ts, const std::string& first,
                      const std::string& second) {
  if (!ts->Peek().IsKeyword(first) || !ts->Peek(1).IsSymbol("-") ||
      !ts->Peek(2).IsKeyword(second)) {
    return false;
  }
  for (int i = 0; i < 3; ++i) ts->Next();
  return true;
}

/// `[using <idattr>]` of the whole-feature operators (default "fid").
Result<std::string> ParseIdAttr(TokenStream* ts) {
  if (!ts->TryKeyword("using")) return std::string("fid");
  return ts->ExpectIdentifier("id attribute");
}

/// Compiles a script one statement at a time, typing each statement from
/// its operands' already-known schemas.
class Compiler {
 public:
  explicit Compiler(const Database& db) : db_(db) {}

  /// Parses and types one statement.
  Status Add(const std::vector<Token>& tokens) {
    TokenStream ts(tokens);
    Step step;
    CCDB_ASSIGN_OR_RETURN(step.name, ts.ExpectIdentifier("step name"));
    CCDB_RETURN_IF_ERROR(ts.ExpectSymbol("="));
    CCDB_ASSIGN_OR_RETURN(step.node, ParseBody(&ts, &step));
    CCDB_ASSIGN_OR_RETURN(
        step.schema, cqa::OutputSchema(*step.node, step.operand_schemas, db_));
    if (!ts.AtEnd()) {
      return Status::ParseError("trailing input: '" + ts.Peek().text + "'");
    }
    step.operand_schemas.clear();
    latest_[step.name] = steps_.size();
    steps_.push_back(std::move(step));
    return Status::OK();
  }

  /// Builds the plan of the final step.
  Result<CompiledScript> Finish() {
    if (steps_.empty()) {
      return Status::InvalidArgument("script contains no statements");
    }
    // Reads per definition, counted from the final step backwards so that
    // a step nothing on the way to the result reads stays unread (and
    // unrun). Counting per definition, not per name, keeps redefinitions
    // apart.
    auto live = [this](size_t i) {
      return i + 1 == steps_.size() || steps_[i].reads > 0;
    };
    for (size_t i = steps_.size(); i-- > 0;) {
      if (!live(i)) continue;
      for (const Operand& operand : steps_[i].operands) {
        if (operand.def) ++steps_[*operand.def].reads;
      }
    }
    for (size_t i = 0; i < steps_.size(); ++i) {
      if (!live(i)) continue;
      Step& step = steps_[i];
      for (size_t c = 0; c < step.operands.size(); ++c) {
        step.node->children[c] = Reference(step.operands[c]);
      }
      if (step.reads > 1) step.shared = std::move(step.node);
    }
    CompiledScript out;
    out.plan = std::move(steps_.back().node);
    out.final_step = steps_.back().name;
    return out;
  }

 private:
  /// Reads one relation name into `step`'s operands.
  Status ReadOperand(TokenStream* ts, Step* step) {
    CCDB_ASSIGN_OR_RETURN(std::string name,
                          ts->ExpectIdentifier("relation name"));
    Operand operand{name, std::nullopt};
    if (auto it = latest_.find(name); it != latest_.end()) {
      operand.def = it->second;
      step->operand_schemas.push_back(steps_[it->second].schema);
    } else {
      CCDB_ASSIGN_OR_RETURN(const Relation* rel, db_.Get(name));
      step->operand_schemas.push_back(rel->schema());
    }
    step->operands.push_back(std::move(operand));
    return Status::OK();
  }

  /// `<lhs> and <rhs>`.
  Status ReadOperands(TokenStream* ts, Step* step) {
    CCDB_RETURN_IF_ERROR(ReadOperand(ts, step));
    CCDB_RETURN_IF_ERROR(ts->ExpectKeyword("and"));
    return ReadOperand(ts, step);
  }

  /// The operator after `<name> =`, with null children.
  Result<std::unique_ptr<PlanNode>> ParseBody(TokenStream* ts, Step* step);

  /// A reader's child for `operand`: a scan, a reference to a shared
  /// step, or the step's own subplan when this is its only reader.
  std::unique_ptr<PlanNode> Reference(const Operand& operand) {
    if (!operand.def) return PlanNode::Scan(operand.name);
    Step& def = steps_[*operand.def];
    if (def.shared != nullptr) {
      return PlanNode::Shared(def.name, def.shared, def.schema);
    }
    return std::move(def.node);
  }

  const Database& db_;
  std::vector<Step> steps_;
  std::map<std::string, size_t> latest_;  ///< step name -> latest definition
};

Result<std::unique_ptr<PlanNode>> Compiler::ParseBody(TokenStream* ts,
                                                      Step* step) {
  const std::vector<Schema>& in = step->operand_schemas;
  if (ts->TryKeyword("select")) {
    CCDB_ASSIGN_OR_RETURN(std::vector<ParsedComparison> comparisons,
                          ParseComparisonsUntil(ts, "from"));
    CCDB_RETURN_IF_ERROR(ReadOperand(ts, step));
    CCDB_ASSIGN_OR_RETURN(Predicate pred, BindPredicate(in[0], comparisons));
    return PlanNode::Select(nullptr, std::move(pred));
  }
  if (ts->TryKeyword("project")) {
    CCDB_RETURN_IF_ERROR(ReadOperand(ts, step));
    CCDB_RETURN_IF_ERROR(ts->ExpectKeyword("on"));
    std::vector<std::string> attrs;
    do {
      CCDB_ASSIGN_OR_RETURN(std::string attr,
                            ts->ExpectIdentifier("attribute name"));
      attrs.push_back(std::move(attr));
    } while (ts->TrySymbol(","));
    return PlanNode::Project(nullptr, std::move(attrs));
  }
  if (ts->TryKeyword("join")) {
    CCDB_RETURN_IF_ERROR(ReadOperands(ts, step));
    return PlanNode::Join(nullptr, nullptr);
  }
  // Product and intersect are the natural join of disjoint and of
  // identical schemas; they compile to kJoin once that is checked.
  if (ts->TryKeyword("product")) {
    CCDB_RETURN_IF_ERROR(ReadOperands(ts, step));
    for (const Attribute& attr : in[0].attributes()) {
      if (in[1].Has(attr.name)) {
        return Status::InvalidArgument(
            "cross product requires disjoint schemas; shared attribute '" +
            attr.name + "' (use NaturalJoin or Rename)");
      }
    }
    return PlanNode::Join(nullptr, nullptr);
  }
  if (ts->TryKeyword("intersect")) {
    CCDB_RETURN_IF_ERROR(ReadOperands(ts, step));
    if (in[0] != in[1]) {
      return Status::InvalidArgument(
          "intersection requires identical schemas");
    }
    return PlanNode::Join(nullptr, nullptr);
  }
  if (ts->TryKeyword("union")) {
    CCDB_RETURN_IF_ERROR(ReadOperands(ts, step));
    return PlanNode::UnionOf(nullptr, nullptr);
  }
  if (ts->TryKeyword("minus") || ts->TryKeyword("difference")) {
    CCDB_RETURN_IF_ERROR(ReadOperands(ts, step));
    return PlanNode::DifferenceOf(nullptr, nullptr);
  }
  if (ts->TryKeyword("rename")) {
    CCDB_ASSIGN_OR_RETURN(std::string from,
                          ts->ExpectIdentifier("attribute name"));
    CCDB_RETURN_IF_ERROR(ts->ExpectKeyword("to"));
    CCDB_ASSIGN_OR_RETURN(std::string to,
                          ts->ExpectIdentifier("attribute name"));
    CCDB_RETURN_IF_ERROR(ts->ExpectKeyword("in"));
    CCDB_RETURN_IF_ERROR(ReadOperand(ts, step));
    return PlanNode::RenameAttr(nullptr, std::move(from), std::move(to));
  }
  if (ts->TryKeyword("normalize")) {
    CCDB_RETURN_IF_ERROR(ReadOperand(ts, step));
    return PlanNode::Normalize(nullptr);
  }
  if (TryHyphenKeyword(ts, "buffer", "join")) {
    CCDB_RETURN_IF_ERROR(ReadOperands(ts, step));
    CCDB_RETURN_IF_ERROR(ts->ExpectKeyword("within"));
    CCDB_ASSIGN_OR_RETURN(Rational distance, ParseCoefficient(ts));
    CCDB_ASSIGN_OR_RETURN(std::string id_attr, ParseIdAttr(ts));
    return PlanNode::BufferJoin(nullptr, nullptr, std::move(distance),
                                std::move(id_attr));
  }
  if (TryHyphenKeyword(ts, "k", "nearest")) {
    CCDB_RETURN_IF_ERROR(ReadOperands(ts, step));
    CCDB_RETURN_IF_ERROR(ts->ExpectKeyword("k"));
    CCDB_ASSIGN_OR_RETURN(Rational k_value, ParseCoefficient(ts));
    if (!k_value.IsInteger()) {
      return Status::ParseError("k must be a non-negative integer");
    }
    CCDB_ASSIGN_OR_RETURN(int64_t k, k_value.numerator().ToInt64());
    CCDB_ASSIGN_OR_RETURN(std::string id_attr, ParseIdAttr(ts));
    return PlanNode::KNearest(nullptr, nullptr, static_cast<size_t>(k),
                              std::move(id_attr));
  }
  return Status::ParseError("unknown operator '" + ts->Peek().text + "'");
}

}  // namespace

Result<CompiledScript> CompileScript(const std::vector<Statement>& statements,
                                     const Database& db) {
  Compiler compiler(db);
  for (const Statement& s : statements) {
    CCDB_RETURN_IF_ERROR(AtLine(s.line, compiler.Add(s.tokens)));
  }
  return compiler.Finish();
}

Result<CompiledScript> CompileScript(const std::string& script,
                                     const Database& db) {
  CCDB_ASSIGN_OR_RETURN(auto statements, TokenizeScript(script));
  return CompileScript(statements, db);
}

}  // namespace ccdb::lang
