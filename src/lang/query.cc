#include "lang/query.h"

#include <set>

#include "core/plan.h"
#include "lang/compile.h"
#include "obs/governance.h"

namespace ccdb::lang {

namespace {

/// True when `b` touches `a` and the expression grammar reads that: a
/// fraction (`3/2`) or a coefficient and its variable (`2x`).
bool KeepsTouching(const Token& a, const Token& b) {
  const bool read = (a.Is(TokenKind::kNumber) &&
                     (b.IsSymbol("/") || b.Is(TokenKind::kIdentifier))) ||
                    (a.IsSymbol("/") && b.Is(TokenKind::kNumber));
  return read && a.position + a.text.size() == b.position;
}

}  // namespace

Result<ScriptRun> EvaluateScript(const std::vector<Statement>& statements,
                                 const Database& db, obs::TraceNode* trace) {
  CCDB_ASSIGN_OR_RETURN(CompiledScript compiled,
                        CompileScript(statements, db));
  std::unique_ptr<cqa::PlanNode> plan =
      cqa::Optimize(std::move(compiled.plan), db);
  ScriptRun run;
  run.final_step = std::move(compiled.final_step);
  if (trace != nullptr) {
    run.plan_text = plan->ToString();
    CCDB_ASSIGN_OR_RETURN(run.relation, cqa::ExecuteTraced(*plan, db, trace));
  } else {
    CCDB_ASSIGN_OR_RETURN(run.relation, cqa::Execute(*plan, db));
  }
  // A trip can latch during the plan's last operator iteration — after
  // that iteration's check-point — via a charge. FM helpers bail early
  // once aborting is latched and return semantically wrong partial
  // values, so the trip becomes its typed error here, before the result
  // could be registered, returned as OK, or seed a cache.
  CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
  return run;
}

Result<std::string> ExecuteScript(const std::string& script, Database* db) {
  CCDB_ASSIGN_OR_RETURN(auto statements, TokenizeScript(script));
  CCDB_ASSIGN_OR_RETURN(ScriptRun run, EvaluateScript(statements, *db));
  db->CreateOrReplace(run.final_step, std::move(run.relation));
  return run.final_step;
}

Result<Relation> RunQuery(const std::string& script, Database* db) {
  CCDB_ASSIGN_OR_RETURN(std::string last, ExecuteScript(script, db));
  CCDB_ASSIGN_OR_RETURN(const Relation* rel, db->Get(last));
  return *rel;
}

std::string CanonicalizeScript(const std::vector<Statement>& statements) {
  std::string out;
  for (const Statement& statement : statements) {
    if (!out.empty()) out += '\n';
    const std::vector<Token>& ts = statement.tokens;
    for (size_t i = 0; i + 1 < ts.size(); ++i) {  // up to the kEnd sentinel
      const Token& t = ts[i];
      if (i > 0 && !KeepsTouching(ts[i - 1], t)) out += ' ';
      if (t.Is(TokenKind::kString)) out += '"';
      out += t.text;
      if (t.Is(TokenKind::kString)) out += '"';
    }
  }
  return out;
}

Result<std::string> CanonicalizeScript(const std::string& script) {
  CCDB_ASSIGN_OR_RETURN(auto statements, TokenizeScript(script));
  return CanonicalizeScript(statements);
}

std::vector<std::string> ScriptInputs(
    const std::vector<Statement>& statements) {
  std::set<std::string> defined;
  std::set<std::string> inputs;
  for (const Statement& statement : statements) {
    // Statement shape: <step> = <body>. Everything after the step name
    // that is an identifier and not an already-defined step is a
    // potential catalog read.
    const std::vector<Token>& ts = statement.tokens;
    for (size_t i = 1; i < ts.size(); ++i) {
      if (ts[i].Is(TokenKind::kIdentifier) && !defined.count(ts[i].text)) {
        inputs.insert(ts[i].text);
      }
    }
    if (ts[0].Is(TokenKind::kIdentifier)) defined.insert(ts[0].text);
  }
  return std::vector<std::string>(inputs.begin(), inputs.end());
}

Result<std::vector<std::string>> ScriptInputs(const std::string& script) {
  CCDB_ASSIGN_OR_RETURN(auto statements, TokenizeScript(script));
  return ScriptInputs(statements);
}

TxnStatement ClassifyTxnStatement(const std::vector<Statement>& statements) {
  if (statements.size() != 1) return TxnStatement::kNone;
  // `<keyword> [TRANSACTION]`, then the kEnd sentinel.
  const std::vector<Token>& ts = statements[0].tokens;
  if (ts.size() > 3 || (ts.size() == 3 && !ts[1].IsKeyword("TRANSACTION"))) {
    return TxnStatement::kNone;
  }
  if (ts[0].IsKeyword("BEGIN")) return TxnStatement::kBegin;
  if (ts[0].IsKeyword("COMMIT")) return TxnStatement::kCommit;
  if (ts[0].IsKeyword("ROLLBACK")) return TxnStatement::kRollback;
  return TxnStatement::kNone;
}

}  // namespace ccdb::lang
