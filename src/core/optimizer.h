#ifndef LAMBADA_CORE_OPTIMIZER_H_
#define LAMBADA_CORE_OPTIMIZER_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "core/logical_plan.h"
#include "core/planner.h"
#include "engine/expr.h"
#include "models/costmodel.h"

namespace lambada::core {

// ---------------------------------------------------------------------------
// The cost-based optimizer: the one query planner
// ---------------------------------------------------------------------------
// Consumes the logical plan IR (core/logical_plan.h) and emits a physical
// query — the serverless-scope fragment plus its driver-scope finalization
// (Section 3.2). A single-table query is the zero-join case of the same
// plan: the join decisions below are no-ops for it. Rewrites, in order:
//
//  0. **Push-down and data-parallel aggregation.** Leading filters fold
//     into each scan's predicate (row-group pruning via min/max stats plus
//     the residual predicate); each scan reads only the columns referenced
//     downstream; a terminal aggregate becomes worker-side partial
//     aggregation plus a driver-side merge, and filters trailing it run in
//     the driver scope (HAVING).
//
//  1. **Selection placement.** Filters floated between/after joins are
//     pushed into the single relation whose columns they reference (build
//     sides of inner joins, or the driving relation); OR-of-ANDs
//     predicates additionally push their per-relation implied disjunction
//     (the Q19 rewrite) while the original stays as a residual. Residuals
//     re-enter the pipeline at the earliest join prefix providing their
//     columns.
//  2. **Join order.** With per-relation stats, join edges are enumerated
//     with dynamic programming over edge subsets (left-deep, up to
//     `max_dp_relations` edges; greedy beyond), minimizing summed modeled
//     exchange traffic. Feasibility tracks key provenance: an edge whose
//     probe key is emitted by another build relation must follow that
//     edge. Exact cost ties preserve the query's syntax order, so the
//     optimizer is a no-op when it has no information to act on.
//  3. **Exchange strategy.** Each join independently picks partitioned
//     (both sides traverse the hash exchange) or broadcast (every worker
//     reads the whole build relation; no exchange) by comparing modeled
//     traffic (models::PartitionedExchangeTraffic vs BroadcastTraffic).
//     Unknown stats or an unknown worker count fall back to partitioned.
//
// Projection push-down then runs over the assembled multi-join pipeline,
// and the whole plan is rendered into PhysicalQuery::explain_text.

/// Per-relation statistics the driver assembles before planning (from file
/// listings and the stats index). Zero/empty means unknown.
struct RelationStats {
  double rows = 0;      ///< Total rows across matched files.
  double bytes = 0;     ///< Total post-encoding bytes across matched files.
  int64_t files = 0;    ///< Matched file count.
  /// Min/max per column, where the stats index has them.
  std::map<std::string, engine::Interval> columns;
};

/// Everything the optimizer knows about base relations, keyed by the exact
/// input glob the query names. Missing entries mean "no stats": the
/// optimizer still plans, with byte-based fallbacks and partitioned joins.
struct Catalog {
  std::map<std::string, RelationStats> relations;
};

/// Forcing knob for experiments (the BENCH_join ablation): kAuto lets the
/// cost model decide per join.
enum class JoinStrategyOverride : uint8_t {
  kAuto = 0,
  kForcePartitioned = 1,
  kForceBroadcast = 2,
};

struct OptimizerOptions {
  ScanTuning tuning;
  /// Fleet size the query will run with; 0 = unknown (disables the
  /// broadcast alternative, whose cost scales with the worker count).
  int workers = 0;
  /// Join-order DP bound: up to this many join edges are enumerated
  /// exactly; beyond it a greedy ordering is used.
  int max_dp_relations = 6;
  JoinStrategyOverride strategy = JoinStrategyOverride::kAuto;
  models::ExchangeTrafficParams traffic;
};

/// Compiles a query into a physical plan (see file comment). Without a
/// catalog (`OptimizeQuery(q, {}, {})`) it keeps the query's join order and
/// the partitioned strategy.
Result<PhysicalQuery> OptimizeQuery(const Query& query, const Catalog& catalog,
                                    const OptimizerOptions& options);

/// Renders the chosen plan as deterministic text (scan filters and
/// projections, join order, per-join strategy decisions with both modeled
/// costs, aggregate, HAVING): PhysicalQuery::explain_text of the
/// optimized plan. Backs Query::Explain() and SQL EXPLAIN.
Result<std::string> ExplainQuery(const Query& query,
                                 const Catalog& catalog = {},
                                 const OptimizerOptions& options = {});

/// Estimated fraction of rows satisfying `predicate`, given per-column
/// bounds and the relation's row count (both may be unknown). Conjunction
/// multiplies, disjunction adds with overlap correction, comparisons
/// against literals interpolate into the column's [min, max]; anything
/// unanalyzable contributes a fixed default. Exposed for tests.
double EstimateSelectivity(const engine::ExprPtr& predicate,
                           const std::map<std::string, engine::Interval>& cols,
                           double rows);

}  // namespace lambada::core

#endif  // LAMBADA_CORE_OPTIMIZER_H_
