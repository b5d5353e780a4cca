#include "engine/join.h"

#include <memory>
#include <set>
#include <type_traits>
#include <utility>

#include "engine/head_table.h"
#include "engine/partition.h"
#include "exec/parallel_for.h"

namespace lambada::engine {

namespace {

constexpr uint32_t kNoRow = HeadTable::kNoRow;

/// Exact key comparison; the hash table chains by hash value only, so
/// collisions are resolved here.
bool KeysEqual(const TableChunk& probe, const std::vector<int>& probe_keys,
               size_t probe_row, const TableChunk& build,
               const std::vector<int>& build_keys, size_t build_row) {
  for (size_t k = 0; k < probe_keys.size(); ++k) {
    const auto& p = probe.column(static_cast<size_t>(probe_keys[k])).i64();
    const auto& b = build.column(static_cast<size_t>(build_keys[k])).i64();
    if (p[probe_row] != b[build_row]) return false;
  }
  return true;
}

Status ValidateKeys(const TableChunk& chunk, const std::vector<int>& keys,
                    const char* side) {
  for (int c : keys) {
    if (c < 0 || static_cast<size_t>(c) >= chunk.num_columns()) {
      return Status::Invalid(std::string("join ") + side +
                             " key column index out of range");
    }
    if (chunk.column(static_cast<size_t>(c)).type() != DataType::kInt64) {
      return Status::Invalid(std::string("join ") + side + " key column " +
                             chunk.schema()->field(static_cast<size_t>(c))
                                 .name +
                             " must be int64");
    }
  }
  return Status::OK();
}

/// Column of `src` values at `rows`, in that order.
Column Gather(const Column& src, const std::vector<uint32_t>& rows) {
  auto gather = [&](const auto& values) {
    std::vector<std::decay_t<decltype(values[0])>> out(rows.size());
    for (size_t p = 0; p < rows.size(); ++p) out[p] = values[rows[p]];
    return out;
  };
  return src.type() == DataType::kInt64 ? Column::Int64(gather(src.i64()))
                                        : Column::Float64(gather(src.f64()));
}

}  // namespace

std::string_view JoinTypeName(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeftSemi:
      return "left-semi";
  }
  return "?";
}

Result<TableChunk> HashJoin(const TableChunk& probe,
                            const std::vector<int>& probe_keys,
                            const TableChunk& build,
                            const std::vector<int>& build_keys,
                            JoinType type, const exec::ExecContext& ctx) {
  if (probe_keys.empty() || probe_keys.size() != build_keys.size()) {
    return Status::Invalid("join key lists must be non-empty and equal");
  }
  RETURN_NOT_OK(ValidateKeys(probe, probe_keys, "probe"));
  RETURN_NOT_OK(ValidateKeys(build, build_keys, "build"));

  // Output layout: probe columns, then (inner only) the build columns
  // minus the build keys — key values are equal across sides by
  // definition, so repeating them would only create name collisions.
  std::vector<Field> out_fields = probe.schema()->fields();
  std::vector<const Column*> build_out;  // Borrowed build-side columns.
  if (type == JoinType::kInner) {
    std::set<int> key_set(build_keys.begin(), build_keys.end());
    for (size_t c = 0; c < build.num_columns(); ++c) {
      if (key_set.count(static_cast<int>(c))) continue;
      out_fields.push_back(build.schema()->field(c));
      build_out.push_back(&build.column(c));
    }
  }
  {
    std::set<std::string> names;
    for (const auto& f : out_fields) {
      if (!names.insert(f.name).second) {
        return Status::Invalid("join output would duplicate column " +
                               f.name);
      }
    }
  }

  // Build a chained hash table over the build side. Rows insert in
  // descending order with head insertion, so every chain reads in
  // ascending build-row order — the order matches emit in.
  const size_t n_build = build.num_rows();
  const size_t n_probe = probe.num_rows();
  if (n_build > kNoRow - 1) return Status::Invalid("build side too large");
  if (n_probe > kNoRow) return Status::Invalid("probe side too large");
  std::vector<uint32_t> next(n_build, kNoRow);
  HeadTable heads(n_build);
  for (size_t r = n_build; r-- > 0;) {
    uint32_t& head = heads.Head(HashRow(build, build_keys, r));
    next[r] = head;
    head = static_cast<uint32_t>(r);
  }

  // Walks probe row i's matches in build-row order along the chain that
  // starts at build row `first`; returns how many were visited (semi joins
  // stop at the first).
  auto for_each_match = [&](size_t i, uint32_t first,
                            auto&& emit) -> uint64_t {
    uint64_t found = 0;
    for (uint32_t r = first; r != kNoRow; r = next[r]) {
      if (!KeysEqual(probe, probe_keys, i, build, build_keys, r)) continue;
      emit(r);
      ++found;
      if (type == JoinType::kLeftSemi) break;
    }
    return found;
  };

  // Pass 1: look up each probe row's chain, and count matches per morsel
  // to fix each morsel's write window, making pass 2 scatter
  // deterministically for any thread count.
  const size_t num_morsels = exec::NumMorsels(ctx, n_probe);
  std::vector<uint64_t> counts(num_morsels, 0);
  std::vector<uint32_t> chain(n_probe);
  exec::ParallelFor(ctx, 0, n_probe, [&](size_t m, size_t b, size_t e) {
    uint64_t c = 0;
    for (size_t i = b; i < e; ++i) {
      chain[i] = heads.Find(HashRow(probe, probe_keys, i));
      c += for_each_match(i, chain[i], [](uint32_t) {});
    }
    counts[m] = c;
  });
  std::vector<uint64_t> offsets(num_morsels + 1, 0);
  for (size_t m = 0; m < num_morsels; ++m) {
    offsets[m + 1] = offsets[m] + counts[m];
  }
  const size_t total = static_cast<size_t>(offsets[num_morsels]);

  // Pass 2: re-walk and record each output row's source rows in the
  // precomputed windows.
  std::vector<uint32_t> probe_rows(total);
  std::vector<uint32_t> build_rows(build_out.empty() ? 0 : total);
  exec::ParallelFor(ctx, 0, n_probe, [&](size_t m, size_t b, size_t e) {
    size_t pos = static_cast<size_t>(offsets[m]);
    for (size_t i = b; i < e; ++i) {
      for_each_match(i, chain[i], [&](uint32_t r) {
        probe_rows[pos] = static_cast<uint32_t>(i);
        if (!build_rows.empty()) build_rows[pos] = r;
        ++pos;
      });
    }
  });

  // Pass 3: materialize column by column.
  const size_t n_probe_cols = probe.num_columns();
  std::vector<Column> columns(n_probe_cols + build_out.size(),
                              Column(DataType::kInt64));
  exec::ParallelForEach(ctx, columns.size(), [&](size_t c) {
    columns[c] = c < n_probe_cols
                     ? Gather(probe.column(c), probe_rows)
                     : Gather(*build_out[c - n_probe_cols], build_rows);
  });
  return TableChunk(std::make_shared<Schema>(std::move(out_fields)),
                    std::move(columns));
}

}  // namespace lambada::engine
