#ifndef CCDB_LANG_QUERY_H_
#define CCDB_LANG_QUERY_H_

/// \file query.h
/// The step-based CQA query language: execution, canonical text, inputs.
///
/// Each function reads a script's statement list (`TokenizeScript`), so a
/// served script is tokenized once; the string forms tokenize first.
///
/// Queries are sequences of named steps, exactly the style of the paper's
/// §3.3 Hurricane case study ("CQA/CDB queries are broken up into multiple
/// steps"):
///
///   # Query 3: whose land was hit between time 4 and 9
///   R0 = join Landownership and Land
///   R1 = select t >= 4, t <= 9 from Hurricane
///   R2 = join R0 and R1
///   R3 = project R2 on name
///
/// Statement forms (keywords case-insensitive):
///   <name> = select <comparisons> from <rel>
///   <name> = project <rel> on <attr>, <attr>, ...
///   <name> = join <rel> and <rel>
///   <name> = product <rel> and <rel>
///   <name> = intersect <rel> and <rel>
///   <name> = union <rel> and <rel>
///   <name> = minus <rel> and <rel>            (also: difference)
///   <name> = rename <attr> to <attr> in <rel>
///   <name> = normalize <rel>                   (drop unsat/redundant/subsumed)
///   <name> = buffer-join <rel> and <rel> within <number> [using <idattr>]
///   <name> = k-nearest <rel> and <rel> k <count> [using <idattr>]
///
/// A script compiles to one optimized plan (compile.h) and runs through
/// the one plan executor (core/plan.h). Steps are script-local, like SQL
/// common table expressions: later statements of the same script may
/// reference earlier steps, and a name may be redefined. Only the final
/// step — the query result — is registered in the database (replacing any
/// relation of that name), so a later script can build on it; a script
/// that fails registers nothing.

#include <string>
#include <vector>

#include "data/database.h"
#include "lang/lexer.h"
#include "obs/trace.h"
#include "util/status.h"

namespace ccdb::lang {

/// A script's result, before anything is registered.
struct ScriptRun {
  std::string final_step;  ///< the name the result is registered under
  Relation relation;       ///< the final step's relation
  std::string plan_text;   ///< the optimized plan; rendered only when traced
};

/// The one execution path every script takes: compiles it against `db`,
/// optimizes the plan and executes it — with operator spans recorded into
/// `trace` when non-null — then surfaces a governance trip the last
/// operator latched, so a tripped run never returns a partial result as
/// OK. Registers nothing; callers register `final_step`, so a script that
/// fails registers nothing.
Result<ScriptRun> EvaluateScript(const std::vector<Statement>& statements,
                                 const Database& db,
                                 obs::TraceNode* trace = nullptr);

/// TokenizeScript and EvaluateScript, then registers the final step's
/// result in `db` under its name. Returns that name; fails on the first
/// error with its source line number.
Result<std::string> ExecuteScript(const std::string& script, Database* db);

/// Executes a script like ExecuteScript and returns the final relation
/// (by value).
Result<Relation> RunQuery(const std::string& script, Database* db);

/// Canonical text of a script: comments and blank lines dropped, every
/// statement re-emitted as its token texts joined by single spaces (string
/// literals re-quoted), statements joined by '\n' — except that the pairs
/// the grammar reads touching (number and `/`, `/` and number, number and
/// identifier) touch where they did: `3/2` is a fraction, `3 / 2` a parse
/// error. Two scripts with equal canonical text parse alike and execute
/// identically against equal catalogs — the service layer's result-cache
/// key. Identifier case is preserved, so `SELECT` vs `select` only costs a
/// cache miss, never a wrong hit.
std::string CanonicalizeScript(const std::vector<Statement>& statements);
Result<std::string> CanonicalizeScript(const std::string& script);

/// Over-approximation of the catalog names a script reads but does not
/// itself define: every identifier after a statement's step name that no
/// earlier statement defined, sorted and deduplicated. The list includes
/// attribute names and keywords — callers filter by catalog membership;
/// over-inclusion only widens a cache key, under-inclusion cannot happen.
std::vector<std::string> ScriptInputs(const std::vector<Statement>& statements);
Result<std::vector<std::string>> ScriptInputs(const std::string& script);

/// Transaction-control statements, recognized before a script reaches the
/// step-statement executor.
enum class TxnStatement {
  kNone,      ///< not a transaction control — a normal script
  kBegin,     ///< BEGIN [TRANSACTION]
  kCommit,    ///< COMMIT [TRANSACTION]
  kRollback,  ///< ROLLBACK [TRANSACTION]
};

/// Classifies a whole submission as a transaction control. Matches only
/// when the script is exactly one statement of identifier tokens `BEGIN` /
/// `COMMIT` / `ROLLBACK`, optionally followed by `TRANSACTION`,
/// case-insensitive; a `#` comment may follow, as after any statement.
/// Anything else — a quoted `"BEGIN"`, `BEGIN;`, a control keyword mixed
/// into a multi-statement script — is kNone and flows through normal
/// execution (where `BEGIN` is a parse error).
TxnStatement ClassifyTxnStatement(const std::vector<Statement>& statements);

}  // namespace ccdb::lang

#endif  // CCDB_LANG_QUERY_H_
