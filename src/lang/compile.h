#ifndef CCDB_LANG_COMPILE_H_
#define CCDB_LANG_COMPILE_H_

/// \file compile.h
/// The step language's one front end: scripts compile to one logical plan.
///
/// `CompileScript` parses a §3.3 step script (the grammar is in query.h)
/// from its statement list (`TokenizeScript`, lexer.h) and turns it into
/// a single `PlanNode` tree, which `cqa::Optimize` and `cqa::Execute` /
/// `cqa::ExecuteTraced` then run. `lang::EvaluateScript` (query.h) is that
/// path, shared by served queries, `\trace`, and `lang::ExecuteScript`.
///
/// Each statement is parsed and type-checked as it is compiled, from its
/// operands' already-known schemas, so an ill-typed statement fails with
/// its line number before anything executes. A step read once is inlined
/// into its reader; a step read more than once becomes one `kShared`
/// subplan that every reader references, so it runs once per execution.
/// A step nothing reads on the way to the final step is not executed.
/// `product` and `intersect` check their schemas (disjoint, identical)
/// and compile to the natural join that implements them.

#include <memory>
#include <string>
#include <vector>

#include "core/plan.h"
#include "lang/lexer.h"
#include "util/status.h"

namespace ccdb::lang {

/// A script compiled to a single logical plan.
struct CompiledScript {
  std::unique_ptr<cqa::PlanNode> plan;  ///< executable against the catalog
  std::string final_step;  ///< name of the last step (= plan's result)
};

/// Compiles a script's statements into one plan tree against `db`'s
/// catalog, which supplies the schemas of the relations the script reads
/// but does not define (they become `Scan` leaves). Fails with the usual
/// parse and type errors, prefixed with the statement's source line.
Result<CompiledScript> CompileScript(const std::vector<Statement>& statements,
                                     const Database& db);

/// TokenizeScript, then CompileScript.
Result<CompiledScript> CompileScript(const std::string& script,
                                     const Database& db);

}  // namespace ccdb::lang

#endif  // CCDB_LANG_COMPILE_H_
