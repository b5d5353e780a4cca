// Shared types of the repo benchmark (perfbench/README.md): per-query
// records, per-layer counters, the host clocks, and the order statistics
// every metric is reported with.
#ifndef LAMBADA_PERFBENCH_BENCH_H_
#define LAMBADA_PERFBENCH_BENCH_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/cost_ledger.h"
#include "core/driver.h"

namespace lambada::perfbench {

/// Host wall clock, seconds.
inline double WallS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user + system CPU time (getrusage), seconds.
inline double CpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of the process, MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the
/// (n-10)-th smallest of n samples (nearest rank), i.e. percentile
/// 100*(n-10)/n. Needs n > 10.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};

inline Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= 10) return t;
  std::sort(v.begin(), v.end());
  const size_t rank = v.size() - 10;  // 1-based rank of the tail value.
  t.value = v[rank - 1];
  t.percentile =
      100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  return t;
}

/// One query as the benchmark saw it.
struct QueryRecord {
  int query = 0;           ///< TPC-H query number.
  bool completed = false;  ///< Ran to a report (not failed or rejected).
  bool correct = false;    ///< Result matched its reference.
  /// Modeled seconds: from issue (closed loop) or from the time the query
  /// was due (open loop, so admission wait counts).
  double latency_s = 0;
  double cost_usd = 0;
};

/// Virtual-time totals of one span name across a pass (source b).
struct SpanTotal {
  int64_t count = 0;
  double total_s = 0;  ///< Sum of span durations.
  double self_s = 0;   ///< Minus the part covered by child spans.
};

/// Everything a pass counted below the end-to-end line. Sources:
/// (a) QueryReport counters, (b) the trace (traced passes only),
/// (d) the benchmark's own Simulator::Step loop.
struct LayerCounters {
  // (a)
  cloud::CostSnapshot cost;
  int64_t queries = 0;
  int64_t workers = 0;
  int64_t cold_starts = 0;
  double invocation_issue_s = 0;
  int64_t input_rows = 0;  ///< Rows of every relation the queries scanned.
  int64_t scan_bytes_moved = 0;
  int64_t rows_scanned = 0;
  int64_t rows_dict_filtered = 0;
  int64_t row_groups_total = 0;
  int64_t row_groups_pruned = 0;
  int64_t exchange_requests = 0;
  int64_t exchange_bytes = 0;
  int64_t meta_cache_hits = 0;
  int64_t meta_cache_misses = 0;
  int64_t shared_scan_fetches = 0;
  int64_t shared_scan_attaches = 0;
  std::vector<double> admission_waits;
  // (b)
  std::map<std::string, SpanTotal> spans;
  // (d)
  int64_t sim_events = 0;
  double sim_host_s = 0;

  /// Folds one report's counters in; `input_rows` is what the query's
  /// scans cover.
  void AddReport(const core::QueryReport& report, int64_t rows);
  /// Folds a query trace's per-span-name totals in. `driver_only` keeps
  /// the driver's own spans: concurrent queries share one worker-side
  /// tracer slot, so only those are per-query exact under serving.
  void AddTrace(const obs::Tracer& trace, bool driver_only);
};

/// The modeled (virtual-clock and simulated-bill) end-to-end metrics.
/// Deterministic per seed: two runs with one seed must agree bit for bit.
struct ModeledMetrics {
  double query_p50_s = 0;
  Tail query_tail;
  double cost_per_query_usd = 0;
  /// serve_mix only.
  double slo_attain_frac = 0;
  double max_qps_at_slo = 0;

  bool operator==(const ModeledMetrics& o) const {
    return query_p50_s == o.query_p50_s &&
           query_tail.value == o.query_tail.value &&
           query_tail.samples == o.query_tail.samples &&
           cost_per_query_usd == o.cost_per_query_usd &&
           slo_attain_frac == o.slo_attain_frac &&
           max_qps_at_slo == o.max_qps_at_slo;
  }
};

/// Host cost of one unit of a pass: one query of a closed loop (`kind` is
/// "Q<number>") or one serve_mix rung (`kind` is "rung <rate> q/s").
struct HostSample {
  std::string kind;
  int64_t completed = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

/// One pass: a workload's fixed, seeded query sequence run once.
struct PassResult {
  ModeledMetrics modeled;
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t failed = 0;  ///< Failed, rejected, or wrong-result queries.
  int64_t wrong = 0;   ///< Of which: wrong results.
  LayerCounters layers;
  std::vector<HostSample> host;
  /// Free-form lines (e.g. the serve_mix rate ladder) for the report.
  std::vector<std::string> notes;
};

}  // namespace lambada::perfbench

#endif  // LAMBADA_PERFBENCH_BENCH_H_
