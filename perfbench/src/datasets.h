// Seeded TPC-H inputs of the benchmark workloads and the reference check
// every query result goes through.
#ifndef LAMBADA_PERFBENCH_DATASETS_H_
#define LAMBADA_PERFBENCH_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/object_store.h"
#include "engine/table.h"

namespace lambada::perfbench {

inline constexpr const char* kBucket = "tpch";
inline constexpr const char* kLineitemPattern = "s3://tpch/li/*.lpq";
inline constexpr const char* kOrdersPattern = "s3://tpch/orders/*.lpq";
inline constexpr const char* kCustomerPattern = "s3://tpch/customer/*.lpq";
/// Q18's HAVING threshold. TPC-H says 300; the generator's 1..7 lines of
/// 1..50 units leave that nearly empty at benchmark scale.
inline constexpr double kQ18MinQuantity = 200.0;

/// Shape of one workload's data on the simulated object store.
struct DatasetSpec {
  int lineitem_files = 16;
  int64_t lineitem_rows = 16000;
  int row_groups_per_file = 8;
  /// Modeled size of each plain-encoded lineitem file (0 = real size);
  /// the other tables get the same modeled bytes per raw byte.
  int64_t lineitem_virtual_bytes = 0;
  int orders_files = 0;  ///< 0 = no ORDERS table.
  int customer_files = 0;  ///< 0 = no CUSTOMER table.
  int64_t customer_rows = 0;
  /// Extra one-file lineitem slices staged for a writer to append later
  /// (serve_mix), each of `append_rows` rows.
  int appends = 0;
  int64_t append_rows = 0;
};

/// The generated tables, kept host-side to compute references.
struct Dataset {
  engine::TableChunk lineitem;
  engine::TableChunk orders;
  engine::TableChunk customer;
  std::vector<engine::TableChunk> appends;
  /// Host seconds spent generating rows vs encoding and uploading files.
  double generate_host_s = 0;
  double write_host_s = 0;
};

/// Generates every table of `spec` from `seed` and uploads them to `s3`:
/// lineitem as li/part-NNNN.lpq, orders/, customer/, and the staged
/// appends as stage/K/part-0000.lpq (see StagedAppendKey).
Dataset GenerateAndLoad(cloud::ObjectStore* s3, const DatasetSpec& spec,
                        uint64_t seed);

/// Object key of staged append `k` and the key it is published under.
std::string StagedAppendKey(int k);
std::string PublishedAppendKey(int k);

/// Concatenation of the base lineitem table and its first `version`
/// appends: the relation a query sees after `version` appends.
engine::TableChunk LineitemAtVersion(const Dataset& data, int version);

/// A query's expected result.
struct Reference {
  engine::TableChunk table;
  /// Single-value results (Q6) compare against this instead.
  bool scalar = false;
  double value = 0;
};

/// Reference result of TPC-H query `query` (1, 6, 12, 3 or 18) over
/// `lineitem` and the dataset's other tables.
Reference ComputeReference(int query, const engine::TableChunk& lineitem,
                           const Dataset& data);

/// True if `got` holds the reference rows: rows are matched after sorting
/// both sides by their int64 columns; int64 values must be equal, float64
/// values within 1e-9 relative (partials merge in a different order than
/// the reference's single loop).
bool MatchesReference(const engine::TableChunk& got, const Reference& want);

}  // namespace lambada::perfbench

#endif  // LAMBADA_PERFBENCH_DATASETS_H_
