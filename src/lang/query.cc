#include "lang/query.h"

#include <cctype>
#include <set>
#include <sstream>

#include "core/plan.h"
#include "lang/compile.h"
#include "lang/lexer.h"
#include "obs/governance.h"
#include "util/string_util.h"

namespace ccdb::lang {

Result<ScriptRun> EvaluateScript(const std::string& script,
                                 const Database& db, obs::TraceNode* trace) {
  CCDB_ASSIGN_OR_RETURN(CompiledScript compiled, CompileScript(script, db));
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
  CCDB_ASSIGN_OR_RETURN(ScriptRun run, EvaluateScript(script, *db));
  db->CreateOrReplace(run.final_step, std::move(run.relation));
  return run.final_step;
}

Result<Relation> RunQuery(const std::string& script, Database* db) {
  CCDB_ASSIGN_OR_RETURN(std::string last, ExecuteScript(script, db));
  CCDB_ASSIGN_OR_RETURN(const Relation* rel, db->Get(last));
  return *rel;
}

Result<std::string> CanonicalizeScript(const std::string& script) {
  std::string out;
  Status s = ForEachStatement(script, [&out](const std::vector<Token>& ts) {
    if (!out.empty()) out += '\n';
    bool first = true;
    for (const Token& t : ts) {
      if (t.Is(TokenKind::kEnd)) break;
      if (!first) out += ' ';
      first = false;
      if (t.Is(TokenKind::kString)) {
        out += '"';
        out += t.text;
        out += '"';
      } else {
        out += t.text;
      }
    }
    return Status::OK();
  });
  CCDB_RETURN_IF_ERROR(s);
  return out;
}

Result<std::vector<std::string>> ScriptInputs(const std::string& script) {
  std::set<std::string> defined;
  std::set<std::string> inputs;
  Status s = ForEachStatement(
      script, [&defined, &inputs](const std::vector<Token>& ts) {
        // Statement shape: <step> = <body>. Everything after the step name
        // that is an identifier and not an already-defined step is a
        // potential catalog read.
        for (size_t i = 1; i < ts.size(); ++i) {
          const Token& t = ts[i];
          if (t.Is(TokenKind::kIdentifier) && !defined.count(t.text)) {
            inputs.insert(t.text);
          }
        }
        if (!ts.empty() && ts[0].Is(TokenKind::kIdentifier)) {
          defined.insert(ts[0].text);
        }
        return Status::OK();
      });
  CCDB_RETURN_IF_ERROR(s);
  return std::vector<std::string>(inputs.begin(), inputs.end());
}

TxnStatement ClassifyTxnStatement(const std::string& script) {
  std::istringstream in(script);
  std::string line;
  std::string statement;
  while (std::getline(in, line)) {
    std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (!statement.empty()) return TxnStatement::kNone;  // multi-statement
    statement = std::move(trimmed);
  }
  if (statement.empty()) return TxnStatement::kNone;

  // Split into whitespace-separated words, uppercased.
  std::vector<std::string> words;
  std::istringstream tokens(statement);
  std::string word;
  while (tokens >> word) {
    for (char& c : word) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    words.push_back(word);
  }
  if (words.empty() || words.size() > 2) return TxnStatement::kNone;
  if (words.size() == 2 && words[1] != "TRANSACTION") {
    return TxnStatement::kNone;
  }
  if (words[0] == "BEGIN") return TxnStatement::kBegin;
  if (words[0] == "COMMIT") return TxnStatement::kCommit;
  if (words[0] == "ROLLBACK") return TxnStatement::kRollback;
  return TxnStatement::kNone;
}

}  // namespace ccdb::lang
