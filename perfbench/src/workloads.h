// The three benchmark workloads (perfbench/README.md): cold_scan and
// join_shuffle are closed loops of one client over core::Driver; serve_mix
// is an open loop of seeded Poisson arrivals into one core::QueryService,
// swept over a fixed offered-rate ladder.
#ifndef LAMBADA_PERFBENCH_WORKLOADS_H_
#define LAMBADA_PERFBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cloud/cloud.h"
#include "core/dataflow.h"
#include "core/driver.h"
#include "datasets.h"

namespace lambada::perfbench {

/// One set-up deployment: a simulated cloud holding the workload's data,
/// the installed driver (closed loops), and every reference result a
/// query of the workload can be checked against.
struct Instance {
  std::unique_ptr<cloud::Cloud> cloud;
  std::unique_ptr<core::Driver> driver;
  Dataset data;
  /// (query, data version) -> expected result. Version = appends visible.
  std::map<std::pair<int, int>, Reference> references;
  /// Host seconds of install plus data generate, encode and upload.
  double setup_host_s = 0;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// The set-up phase: a fresh cloud, driver install, and data generate,
  /// encode and upload; plus the reference results. Identical for one
  /// seed, so two instances replay one pass bit for bit.
  virtual std::unique_ptr<Instance> Setup() const = 0;

  /// Runs the workload's fixed, seeded query sequence once. Closed loops
  /// continue on `inst` (its simulator clock advances); serve_mix starts
  /// every rung from a copy of `inst`'s data. Once the host wall clock
  /// (WallS) reaches `stop_at_s`, no further query (closed loops) or rung
  /// (serve_mix) starts: the pass ends early, whole units only.
  virtual PassResult RunPass(Instance& inst, bool traced,
                             double stop_at_s) const = 0;

  /// The distinct queries the workload issues (for the optimizer probe).
  std::vector<core::Query> Queries() const {
    std::vector<core::Query> qs;
    for (const auto& [number, q] : queries_) qs.push_back(q);
    return qs;
  }

 protected:
  /// TPC-H query number -> query.
  std::map<int, core::Query> queries_;
};

/// The named workload (cold_scan, join_shuffle, serve_mix) for `seed`;
/// null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace lambada::perfbench

#endif  // LAMBADA_PERFBENCH_WORKLOADS_H_
