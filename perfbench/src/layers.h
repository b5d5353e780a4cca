// Per-layer attribution of the traced run: the four sources of
// perfbench/README.md and the metric table they are printed through.
#ifndef LAMBADA_PERFBENCH_LAYERS_H_
#define LAMBADA_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "cloud/object_store.h"
#include "core/dataflow.h"
#include "datasets.h"

namespace lambada::perfbench {

/// Source (c): host time of each layer's public entry points, replayed by
/// the benchmark on the workload's own data. A probe whose layer the
/// workload does not run (joins on cold_scan) stays 0.
struct ProbeResults {
  double read_host_mb_per_s = 0;
  double read_mb = 0;  ///< Base: file MB read per pass over the files.
  double decompress_host_mb_per_s = 0;
  double compress_ratio = 0;
  double compressed_mb = 0;  ///< Base of both compress figures.
  double agg_host_ms = 0;
  double join_host_ms = 0;
  double partition_serde_host_ms = 0;
  double optimize_host_ms = 0;
  int64_t probe_rows = 0;  ///< Lineitem rows fed to the engine probes.
};

/// Replays the layer entry points: FileReader::ReadRowGroup and
/// Codec::Decompress over the lineitem files in `s3`, HashAggregator (Q1's
/// aggregate) over the lineitem table, HashJoin and PartitionBy +
/// SerializeChunk over lineitem x orders when the dataset has ORDERS, and
/// Query::Explain over `queries`.
ProbeResults RunReplayProbes(const cloud::ObjectStore& s3, const Dataset& data,
                             const std::vector<core::Query>& queries);

/// Host seconds of the set-up phase split by layer (medians over set-ups).
struct SetupSplit {
  double generate_host_s = 0;
  double write_host_s = 0;
};

/// One per-layer metric as printed: value, unit, and the base it was
/// divided by.
struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;
};

/// The full per-layer table. `traced` is the traced pass (sources a, b),
/// `untraced` the timed pass that drove the simulator loop (source d).
std::vector<LayerMetric> PerLayerMetrics(const LayerCounters& traced,
                                         const LayerCounters& untraced,
                                         const ProbeResults& probes,
                                         const SetupSplit& setup,
                                         double trace_overhead_frac,
                                         const std::string& overhead_base);

}  // namespace lambada::perfbench

#endif  // LAMBADA_PERFBENCH_LAYERS_H_
