// lambench: the repo benchmark (perfbench/README.md).
//
//   lambench --workload cold_scan|join_shuffle|serve_mix --seed N
//            --seconds S --trace 0|1
//
// --trace 0 is the timed run: repeated set-ups (the median is setup_s), then
// passes of the workload's seeded query sequence until S host seconds
// passed, tracing off. Prints every end-to-end metric. --trace 1 is the
// traced run: untraced passes, traced passes on a second set-up (their
// modeled metrics must be identical), and the layer replay probes. Prints
// every per-layer metric. Every query result is checked against its
// workload::Reference*; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 only if every
// query completed with the right result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "workloads.h"

using namespace lambada;             // NOLINT
using namespace lambada::perfbench;  // NOLINT

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::string(v) == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// Passes of one workload over one instance for `seconds` host seconds:
/// the first pass whole, then passes until the time is up, the last one
/// cut short at a query (closed loops) or rung (serve_mix) boundary. The
/// first pass carries the modeled metrics and the layer counters; every
/// pass is checked.
struct TimedPasses {
  PassResult first;
  int passes = 0;
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  double wall_s = 0;
  double cpu_s = 0;
  /// Peak resident memory after set-up and the first pass: a fixed amount
  /// of work, unlike the whole phase, whose pass count follows host speed.
  double first_pass_peak_rss_mb = 0;
  std::vector<HostSample> host;

  /// Per unit kind, the samples of every pass: `field` seconds per
  /// completed query.
  std::map<std::string, std::vector<double>> PerKind(
      double HostSample::*field) const {
    std::map<std::string, std::vector<double>> per_kind;
    for (const auto& h : host) {
      if (h.completed == 0) continue;
      per_kind[h.kind].push_back(h.*field / static_cast<double>(h.completed));
    }
    return per_kind;
  }

  /// Host seconds per completed query from the median of each unit kind,
  /// weighted by the kind's share of the first pass's completed queries
  /// (fixed per seed). A stall of the host moves a few samples, not the
  /// medians.
  double MedianS(double HostSample::*field) const {
    auto per_kind = PerKind(field);
    double total = 0;
    int64_t n = 0;
    for (const auto& h : first.host) {
      total += Median(per_kind[h.kind]) * static_cast<double>(h.completed);
      n += h.completed;
    }
    return n > 0 ? total / static_cast<double>(n) : 0;
  }
  double host_qps() const {
    const double s = MedianS(&HostSample::wall_s);
    return s > 0 ? 1 / s : 0;
  }
  double cpu_ms_per_query() const { return 1e3 * MedianS(&HostSample::cpu_s); }
};

TimedPasses RunTimed(const Workload& wl, Instance& inst, bool traced,
                     double seconds) {
  TimedPasses t;
  const double wall0 = WallS();
  const double cpu0 = CpuS();
  const double stop_at_s = wall0 + seconds;
  do {
    PassResult p = wl.RunPass(
        inst, traced,
        t.passes == 0 ? std::numeric_limits<double>::infinity() : stop_at_s);
    t.attempted += p.attempted;
    t.completed += p.completed;
    t.failed += p.failed;
    t.wrong += p.wrong;
    t.host.insert(t.host.end(), p.host.begin(), p.host.end());
    if (t.passes++ == 0) {
      t.first = std::move(p);
      t.first_pass_peak_rss_mb = PeakRssMb();
    }
  } while (WallS() < stop_at_s);
  t.wall_s = WallS() - wall0;
  t.cpu_s = CpuS() - cpu0;
  return t;
}

/// A metric for the result line: every digit of the measured value.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Bit-exact rendering of the modeled metrics (hex floats) for the
/// determinism self-check of perfbench/run.py.
void PrintModeled(const ModeledMetrics& m) {
  std::printf(
      "modeled: query_p50_s=%a query_tail_s=%a cost_per_query_usd=%a "
      "slo_attain_frac=%a max_qps_at_slo=%a\n",
      m.query_p50_s, m.query_tail.value, m.cost_per_query_usd,
      m.slo_attain_frac, m.max_qps_at_slo);
}

void PrintPass(const char* label, const TimedPasses& t) {
  std::printf(
      "%s: %d pass(es), %lld attempted, %lld completed, %lld failed (%lld "
      "wrong results), %.3f host s, %.3f cpu s (%.4f queries per host s "
      "overall)\n",
      label, t.passes, static_cast<long long>(t.attempted),
      static_cast<long long>(t.completed), static_cast<long long>(t.failed),
      static_cast<long long>(t.wrong), t.wall_s, t.cpu_s,
      t.wall_s > 0 ? static_cast<double>(t.completed) / t.wall_s : 0);
  for (auto& [kind, v] : t.PerKind(&HostSample::wall_s)) {
    std::sort(v.begin(), v.end());
    std::printf("  host s per query, %s: median %.5f, min %.5f, max %.5f "
                "(%zu samples)\n",
                kind.c_str(), Median(v), v.front(), v.back(), v.size());
  }
  for (const auto& line : t.first.notes) std::printf("  %s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  auto wl = MakeWorkload(args.workload, args.seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu, %.3g s per phase, trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  // ---- Set-up phase, repeated at least kMinSetups times and for at least
  // kMinSetupS host seconds: setup_s is the median. The first two
  // instances are identical and kept (the traced run needs both).
  constexpr int kMinSetups = 3;
  constexpr double kMinSetupS = 3.0;
  std::vector<std::unique_ptr<Instance>> instances;
  std::vector<double> setup_s, generate_s, write_s;
  double setup_total_s = 0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         setup_total_s < kMinSetupS) {
    auto inst = wl->Setup();
    setup_total_s += inst->setup_host_s;
    setup_s.push_back(inst->setup_host_s);
    generate_s.push_back(inst->data.generate_host_s);
    write_s.push_back(inst->data.write_host_s);
    if (instances.size() < 2) instances.push_back(std::move(inst));
  }
  if (!args.trace) instances.resize(1);

  bool ok = true;
  if (!args.trace) {
    TimedPasses t = RunTimed(*wl, *instances[0], false, args.seconds);
    PrintPass("timed", t);
    const ModeledMetrics& m = t.first.modeled;
    const double failed_frac =
        static_cast<double>(t.failed) / static_cast<double>(t.attempted);
    std::printf("query_p50_s          %.6f s (modeled, %zu samples)\n",
                m.query_p50_s, m.query_tail.samples);
    std::printf("query_tail_s         %.6f s (modeled, p%.2f of %zu samples)\n",
                m.query_tail.value, m.query_tail.percentile,
                m.query_tail.samples);
    std::printf("cost_per_query_usd   %.8f USD (modeled)\n",
                m.cost_per_query_usd);
    std::printf("failed_frac          %.6f (%lld of %lld attempted)\n",
                failed_frac, static_cast<long long>(t.failed),
                static_cast<long long>(t.attempted));
    std::printf("slo_attain_frac      %.6f (modeled)\n", m.slo_attain_frac);
    std::printf("max_qps_at_slo       %.6f 1/s (modeled)\n", m.max_qps_at_slo);
    std::printf("host_qps             %.4f 1/s\n", t.host_qps());
    std::printf("host_cpu_ms_per_query %.4f ms\n", t.cpu_ms_per_query());
    std::printf("setup_s              %.4f s (median of %zu set-ups)\n",
                Median(setup_s), setup_s.size());
    std::printf("peak_rss_mb          %.1f MiB (through the first pass; %.1f "
                "MiB through the phase)\n",
                t.first_pass_peak_rss_mb, PeakRssMb());
    PrintModeled(m);
    ok = t.failed == 0;
    PrintResult(ok, t.attempted, t.failed,
                {{"query_p50_s", m.query_p50_s, "s"},
                 {"query_tail_s", m.query_tail.value, "s"},
                 {"cost_per_query_usd", m.cost_per_query_usd, "USD"},
                 {"slo_attain_frac", m.slo_attain_frac, "ratio"},
                 {"max_qps_at_slo", m.max_qps_at_slo, "1/s"},
                 {"host_qps", t.host_qps(), "1/s"},
                 {"host_cpu_ms_per_query", t.cpu_ms_per_query(), "ms"},
                 {"setup_s", Median(setup_s), "s"},
                 {"peak_rss_mb", t.first_pass_peak_rss_mb, "MiB"}});
    return ok ? 0 : 1;
  }

  // ---- Traced run.
  TimedPasses plain = RunTimed(*wl, *instances[0], false, args.seconds);
  PrintPass("untraced", plain);
  TimedPasses traced = RunTimed(*wl, *instances[1], true, args.seconds);
  PrintPass("traced", traced);
  PrintModeled(plain.first.modeled);
  PrintModeled(traced.first.modeled);
  const bool same_modeled = plain.first.modeled == traced.first.modeled;
  std::printf("traced modeled metrics %s the untraced ones\n",
              same_modeled ? "equal" : "DIFFER FROM");

  const ProbeResults probes =
      RunReplayProbes(instances[0]->cloud->s3(), instances[0]->data,
                      wl->Queries());
  SetupSplit split;
  split.generate_host_s = Median(generate_s);
  split.write_host_s = Median(write_s);
  const double overhead =
      traced.host_qps() > 0 ? plain.host_qps() / traced.host_qps() - 1 : 0;
  char base[128];
  std::snprintf(base, sizeof(base), "untraced_qps=%.6g traced_qps=%.6g",
                plain.host_qps(), traced.host_qps());
  const auto layer = PerLayerMetrics(traced.first.layers, plain.first.layers,
                                     probes, split, overhead, base);

  std::printf("\nper-layer metrics (traced pass; base in brackets):\n");
  for (const auto& l : layer) {
    std::printf("  %-36s %14.6g %-6s [%s]\n", l.name.c_str(), l.value,
                l.unit.c_str(), l.base.c_str());
  }
  std::printf("\nvirtual time per span name (traced pass, fleet sums):\n");
  std::printf("  %-28s %8s %14s %14s %14s\n", "cat/name", "count", "total [s]",
              "self [s]", "waiting [s]");
  for (const auto& [key, s] : traced.first.layers.spans) {
    std::printf("  %-28s %8lld %14.6f %14.6f %14.6f\n", key.c_str(),
                static_cast<long long>(s.count), s.total_s, s.self_s,
                s.total_s - s.self_s);
  }

  ok = plain.failed == 0 && traced.failed == 0 && same_modeled;
  std::vector<Metric> metrics;
  for (const auto& l : layer) metrics.push_back({l.name, l.value, l.unit});
  PrintResult(ok, plain.attempted + traced.attempted,
              plain.failed + traced.failed, metrics);
  return ok ? 0 : 1;
}
