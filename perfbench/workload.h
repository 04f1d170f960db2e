#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/// \file workload.h
/// Seeded inputs of the served workloads, and the result oracle.
///
/// Everything here is a function of the seed alone and is computed before
/// any timing starts: the shared 22-relation catalog, each workload's list
/// of operations, and for every read the answer the engine must return.
/// Answers are derived from the generated integers directly (window
/// overlaps in integer arithmetic, hurricane crossings in exact
/// fractions), never by calling the engine.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "util/status.h"

namespace perfbench {

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// True for the workload whose own operation list contains commits; the
/// others get a commit tail after their reads (see Round::tail).
bool HasOwnCommits(const std::string& workload);

/// How much one run does. A run is several rounds, each on a freshly set
/// up leader: memory and WAL per round stay bounded, the set-up is
/// measured once per round, and the run spans more of the host's slow and
/// fast periods than one long round would.
struct RunSize {
  size_t rounds = 0;
  size_t ops_per_round = 0;
  size_t tail_per_round = 0;  ///< trailing commits per round
};

/// The size of a run measuring about `seconds`. It depends only on the
/// arguments, so WAL and memory figures depend only on the inputs, and it
/// keeps at least 1000 reads (so p99 has ten samples beyond it) and 300
/// commits (thirty beyond the commit p90).
RunSize SizeFor(const std::string& workload, double seconds);

enum class OpKind { kRead, kCommit };

/// One client request (a read) or transaction (BEGIN, LOAD Live, COMMIT).
struct Op {
  OpKind kind = OpKind::kRead;
  std::string shape;   ///< query shape of a read; "commit" for a commit
  std::string script;  ///< reads: the step script sent over the wire
  std::shared_ptr<const ccdb::Relation> live;  ///< commits: the new Live

  // The expected answer of a read.
  bool expects_names = false;        ///< compare owner names, not a count
  size_t expected_count = 0;         ///< result cardinality
  std::vector<std::string> expected_names;  ///< sorted, distinct
};

/// The operations of one round.
struct Round {
  std::vector<Op> ops;   ///< the workload's operations, in order
  std::vector<Op> tail;  ///< commits run after `ops` (none in ingest_mix)
};

/// The generated inputs of one run.
struct Inputs {
  /// The shared catalog, in set-up load order.
  std::vector<std::pair<std::string, ccdb::Relation>> catalog;
  std::vector<Round> rounds;
};

/// Builds the inputs of `workload` at `seed`. Scripts are distinct within
/// a run, so the result cache never hits; each round starts from the
/// catalog as loaded.
ccdb::Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed,
                                const RunSize& size);

/// Empty when `result` is the answer `op` expects, else a description of
/// the difference.
std::string CheckAnswer(const Op& op, const ccdb::Relation& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
