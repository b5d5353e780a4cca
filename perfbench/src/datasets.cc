#include "datasets.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.h"
#include "common/logging.h"
#include "common/rng.h"
#include "workload/tpch.h"

namespace lambada::perfbench {

using engine::TableChunk;

namespace {

/// Raw (uncompressed) bytes of `rows` rows of `columns` 8-byte values
/// split over `files` files.
double RawBytesPerFile(int64_t rows, size_t columns, int files) {
  return static_cast<double>(rows) * static_cast<double>(columns) * 8.0 /
         std::max(files, 1);
}

workload::LoadOptions FileOptions(int files, int row_groups,
                                  double virtual_bytes_per_file) {
  workload::LoadOptions o;
  o.num_files = files;
  o.row_groups_per_file = row_groups;
  o.virtual_bytes_per_file = static_cast<int64_t>(virtual_bytes_per_file);
  return o;
}

}  // namespace

std::string StagedAppendKey(int k) {
  return "stage/" + std::to_string(k) + "/part-0000.lpq";
}

std::string PublishedAppendKey(int k) {
  char name[32];
  std::snprintf(name, sizeof(name), "li/part-%04d.lpq", 9000 + k);
  return name;
}

Dataset GenerateAndLoad(cloud::ObjectStore* s3, const DatasetSpec& spec,
                        uint64_t seed) {
  Rng rng(seed);
  const uint64_t li_seed = rng.Next();
  const uint64_t orders_seed = rng.Next();
  const uint64_t customer_seed = rng.Next();

  Dataset d;
  double t0 = WallS();
  d.lineitem = workload::GenerateLineitem(spec.lineitem_rows, li_seed);
  for (int k = 0; k < spec.appends; ++k) {
    d.appends.push_back(
        workload::GenerateLineitem(spec.append_rows, li_seed + 1 + k));
  }
  int64_t max_order = workload::MaxOrderKey(d.lineitem);
  for (const auto& a : d.appends) {
    max_order = std::max(max_order, workload::MaxOrderKey(a));
  }
  if (spec.orders_files > 0) {
    d.orders = workload::GenerateOrders(max_order, orders_seed);
  }
  if (spec.customer_files > 0) {
    d.customer = workload::GenerateCustomer(spec.customer_rows, customer_seed);
  }
  d.generate_host_s = WallS() - t0;

  t0 = WallS();
  // Every table gets the lineitem files' modeled bytes per raw byte, so
  // the optimizer sees the relations in their true proportion.
  const double scale =
      static_cast<double>(spec.lineitem_virtual_bytes) /
      RawBytesPerFile(spec.lineitem_rows, d.lineitem.num_columns(),
                      spec.lineitem_files);
  auto load = [&](const std::string& prefix, const TableChunk& t, int files) {
    const double raw = RawBytesPerFile(static_cast<int64_t>(t.num_rows()),
                                       t.num_columns(), files);
    LAMBADA_CHECK_OK(workload::LoadTableChunk(
        s3, kBucket, prefix, t,
        FileOptions(files, spec.row_groups_per_file, scale * raw)));
  };
  load("li/", d.lineitem, spec.lineitem_files);
  for (int k = 0; k < spec.appends; ++k) {
    load("stage/" + std::to_string(k) + "/", d.appends[k], 1);
  }
  if (spec.orders_files > 0) load("orders/", d.orders, spec.orders_files);
  if (spec.customer_files > 0) {
    load("customer/", d.customer, spec.customer_files);
  }
  d.write_host_s = WallS() - t0;
  return d;
}

TableChunk LineitemAtVersion(const Dataset& data, int version) {
  if (version <= 0) return data.lineitem;
  std::vector<TableChunk> parts = {data.lineitem};
  for (int k = 0; k < version && k < static_cast<int>(data.appends.size());
       ++k) {
    parts.push_back(data.appends[k]);
  }
  auto all = engine::ConcatChunks(parts);
  LAMBADA_CHECK_OK(all.status());
  return std::move(*all);
}

Reference ComputeReference(int query, const TableChunk& lineitem,
                           const Dataset& data) {
  Reference r;
  switch (query) {
    case 1:
      r.table = workload::ReferenceQ1(lineitem);
      break;
    case 6:
      r.scalar = true;
      r.value = workload::ReferenceQ6(lineitem);
      break;
    case 12:
      r.table = workload::ReferenceQ12(lineitem, data.orders);
      break;
    case 3:
      r.table = workload::ReferenceQ3(lineitem, data.orders, data.customer);
      break;
    case 18:
      r.table = workload::ReferenceQ18(lineitem, data.orders, data.customer,
                                       kQ18MinQuantity);
      break;
    default:
      LAMBADA_FATAL() << "no reference for Q" << query;
  }
  return r;
}

namespace {

bool Near(double got, double want) {
  return std::abs(got - want) <= std::abs(want) * 1e-9 + 1e-9;
}

/// Row order of `t` sorted by its int64 columns (left to right).
std::vector<size_t> SortedRows(const TableChunk& t) {
  std::vector<size_t> order(t.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (t.column(c).type() != engine::DataType::kInt64) continue;
      const auto& v = t.column(c).i64();
      if (v[a] != v[b]) return v[a] < v[b];
    }
    return false;
  });
  return order;
}

}  // namespace

bool MatchesReference(const TableChunk& got, const Reference& want) {
  if (want.scalar) {
    return got.num_rows() == 1 && got.num_columns() == 1 &&
           got.column(0).type() == engine::DataType::kFloat64 &&
           Near(got.column(0).f64()[0], want.value);
  }
  const TableChunk& exp = want.table;
  if (got.num_rows() != exp.num_rows() ||
      got.num_columns() != exp.num_columns()) {
    return false;
  }
  const auto got_rows = SortedRows(got);
  const auto exp_rows = SortedRows(exp);
  for (size_t c = 0; c < exp.num_columns(); ++c) {
    if (got.column(c).type() != exp.column(c).type()) return false;
    const bool ints = exp.column(c).type() == engine::DataType::kInt64;
    for (size_t i = 0; i < exp_rows.size(); ++i) {
      if (ints ? got.column(c).i64()[got_rows[i]] !=
                     exp.column(c).i64()[exp_rows[i]]
               : !Near(got.column(c).f64()[got_rows[i]],
                       exp.column(c).f64()[exp_rows[i]])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace lambada::perfbench
