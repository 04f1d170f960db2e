#ifndef CCDB_CCDB_H_
#define CCDB_CCDB_H_

/// \file ccdb.h
/// Umbrella header: the public API of CCDB.
///
/// CCDB is a rational linear constraint database — a from-scratch C++
/// reproduction of the CQA/CDB system of "The Constraint Database
/// Framework: Lessons Learned from CQA/CDB" (ICDE 2003). See README.md for
/// the architecture overview and DESIGN.md for the paper-to-code map.

#include "constraint/conjunction.h"        // constraint tuples' formulas
#include "constraint/constraint.h"         // atomic linear constraints
#include "constraint/fourier_motzkin.h"    // projection / satisfiability
#include "constraint/linear_expr.h"        // rational linear expressions
#include "constraint/independence.h"       // variable independence (§3.2)
#include "core/access.h"                   // stored relations + access paths
#include "core/advisor.h"                  // the §5.4 index advisor
#include "core/calculus.h"                 // CQC: declarative layer over CQA
#include "core/operators.h"                // the CQA operator set
#include "core/plan.h"                     // logical plans + optimizer
#include "core/predicate.h"                // selection predicates
#include "core/spatial.h"                  // Buffer-Join / k-Nearest
#include "data/database.h"                 // the catalog
#include "data/relation.h"                 // heterogeneous relations
#include "data/schema.h"                   // schemas with the C/R flag
#include "data/tuple.h"                    // heterogeneous tuples
#include "data/value.h"                    // relational values
#include "data/workload.h"                 // the paper's workload generator
#include "geom/convert.h"                  // constraint <-> vector (§6)
#include "geom/decompose.h"                // convex decomposition
#include "geom/clip.h"                     // exact convex clipping
#include "geom/polygon.h"                  // vector geometry
#include "index/rstar_tree.h"              // the R*-tree
#include "index/strategy.h"                // joint vs separate indexing
#include "lang/compile.h"                  // script -> logical plan
#include "net/client.h"                    // blocking wire-protocol client
#include "net/replica.h"                   // WAL-shipping read replicas
#include "net/resilient_client.h"          // reconnecting/retrying client
#include "net/server.h"                    // the TCP front door
#include "net/status_server.h"             // HTTP /metrics + /healthz
#include "net/wire.h"                      // binary frame + payload codecs
#include "lang/data_parser.h"              // .cdb data files
#include "lang/query.h"                    // the step-based query language
#include "num/bigint.h"                    // arbitrary-precision integers
#include "num/rational.h"                  // exact rationals
#include "obs/event_log.h"                 // structured operational events
#include "obs/exposition.h"                // Prometheus text rendering
#include "obs/metric_names.h"              // canonical metric names
#include "obs/registry.h"                  // cross-layer metrics registry
#include "obs/trace.h"                     // per-operator spans + counters
#include "obs/trace_sink.h"                // JSONL trace export
#include "service/metrics.h"               // service observability
#include "service/result_cache.h"          // LRU result cache
#include "service/query_service.h"         // concurrent query front door
#include "storage/buffer_pool.h"           // LRU cache
#include "storage/catalog.h"               // database persistence
#include "storage/fault.h"                 // crash/fault injection
#include "storage/heap_file.h"             // slotted heap files
#include "storage/serde.h"                 // tuple/schema codecs
#include "storage/pager.h"                 // the simulated disk
#include "storage/wal.h"                   // write-ahead log + recovery
#include "util/status.h"                   // Status / Result error model

#endif  // CCDB_CCDB_H_
