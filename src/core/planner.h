#ifndef LAMBADA_CORE_PLANNER_H_
#define LAMBADA_CORE_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.h"

namespace lambada::core {

/// One build relation a join query reads, in fragment join order (index ==
/// the join's build_ordinal). The driver expands the pattern and ships
/// per-worker build file lists: a contiguous split for a partitioned join,
/// the full list to every worker for a broadcast join.
struct BuildInput {
  std::string pattern;
  bool broadcast = false;
};

/// The optimizer's record of one join-strategy decision, surfaced for
/// reports, benches, and EXPLAIN. Costs are the modeled exchange-traffic
/// dollars of each alternative (0 when no stats were available and the
/// decision fell back to partitioned).
struct JoinChoice {
  std::string build_pattern;
  bool broadcast = false;
  /// Estimated inputs/output of this join (rows; 0 = unknown).
  double est_probe_rows = 0;
  double est_build_rows = 0;
  double est_output_rows = 0;
  /// Modeled traffic of the two alternatives.
  double partitioned_bytes = 0;
  double partitioned_usd = 0;
  double broadcast_bytes = 0;
  double broadcast_usd = 0;
};

/// The physical query OptimizeQuery produces: a serverless-scope fragment
/// (executed by every worker over its file subset) plus the driver-scope
/// finalization (Section 3.2).
struct PhysicalQuery {
  std::string pattern;          ///< Input file glob (probe side of a join).
  /// Build relations of a join query, one per kJoin op in fragment order;
  /// empty for single-table queries.
  std::vector<BuildInput> build_inputs;
  PlanFragment fragment;        ///< Worker-side plan.
  /// If the fragment ends in an aggregate, the driver merges partial
  /// states with these specs and finalizes; otherwise it concatenates the
  /// workers' row chunks.
  bool has_final_aggregate = false;
  std::vector<std::string> final_group_by;
  std::vector<engine::AggSpec> final_aggs;
  /// Driver-scope row ops applied to the finalized result (HAVING filters
  /// trailing the aggregate).
  std::vector<PlanOp> driver_ops;
  /// One entry per kJoin op (same order as build_inputs).
  std::vector<JoinChoice> join_choices;
  /// Deterministic plan rendering (see Query::Explain / SQL EXPLAIN).
  std::string explain_text;
};

/// Resolves an adaptive chunk ("request") size from table statistics — the
/// Figure 7 tradeoff made into a rule. With one connection the request
/// latency is serial with the transfer, so chunks must reach ~16 MiB to
/// approach peak S3 bandwidth; k connections pipeline their first-byte
/// latencies and divide that requirement by k. Against that, requests
/// cost money and a worker scanning few post-encoding bytes gains nothing
/// from giant chunks, so the chunk also shrinks toward 1/8 of the bytes
/// one worker actually moves (keeping ~8 requests in flight to overlap
/// download with decompression), floored at 1 MiB where the request cost
/// line of Figure 7 starts to dominate the worker cost.
/// `scan_bytes_per_worker` <= 0 (unknown stats) yields the bandwidth-
/// saturating choice for the connection count.
int64_t AdaptiveChunkBytes(int64_t scan_bytes_per_worker, int connections);

}  // namespace lambada::core

#endif  // LAMBADA_CORE_PLANNER_H_
