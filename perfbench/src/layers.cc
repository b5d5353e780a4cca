#include "layers.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "compress/codec.h"
#include "engine/aggregate.h"
#include "engine/chunk_serde.h"
#include "engine/join.h"
#include "engine/partition.h"
#include "format/reader.h"
#include "format/source.h"
#include "workload/tpch.h"

namespace lambada::perfbench {

// ---------------------------------------------------------------------------
// Sources (a), (b): folding reports and traces into the pass counters.
// ---------------------------------------------------------------------------

void LayerCounters::AddReport(const core::QueryReport& report, int64_t rows) {
  using obs::Metric;
  const obs::MetricsRegistry& m = report.fleet_metrics;
  const cloud::CostSnapshot& c = report.cost;
  cost.lambda_gib_seconds += c.lambda_gib_seconds;
  cost.lambda_invocations += c.lambda_invocations;
  cost.s3_get_requests += c.s3_get_requests;
  cost.s3_put_requests += c.s3_put_requests;
  cost.s3_list_requests += c.s3_list_requests;
  cost.s3_bytes_read += c.s3_bytes_read;
  cost.s3_bytes_written += c.s3_bytes_written;
  cost.sqs_requests += c.sqs_requests;
  cost.ddb_reads += c.ddb_reads;
  cost.ddb_writes += c.ddb_writes;
  cost.s3_shared_get_requests += c.s3_shared_get_requests;
  cost.s3_shared_bytes_read += c.s3_shared_bytes_read;
  ++queries;
  for (const auto& w : report.worker_metrics) {
    ++workers;
    if (w.cold_start) ++cold_starts;
  }
  invocation_issue_s += report.invocation_issue_s;
  input_rows += rows;
  scan_bytes_moved += m.counter(Metric::kScanBytesMoved);
  rows_scanned += m.counter(Metric::kRowsScanned);
  rows_dict_filtered += m.counter(Metric::kRowsDictFiltered);
  row_groups_total += m.counter(Metric::kRowGroupsTotal);
  row_groups_pruned += m.counter(Metric::kRowGroupsPruned);
  exchange_requests += m.counter(Metric::kExchangePutRequests) +
                       m.counter(Metric::kExchangeGetRequests) +
                       m.counter(Metric::kExchangeListRequests);
  exchange_bytes += m.counter(Metric::kExchangeBytesWritten) +
                    m.counter(Metric::kExchangeBytesRead);
}

void LayerCounters::AddTrace(const obs::Tracer& trace, bool driver_only) {
  const auto& spans = trace.spans();
  // Child intervals per span, to subtract from the parent's duration.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans) {
    if (s.parent == 0 || s.end < s.start) continue;
    children[s.parent - 1].emplace_back(s.start, s.end);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.end < s.start) continue;  // Left open by a failed query.
    if (driver_only && s.cat != "driver") continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    SpanTotal& t = this->spans[s.cat + "/" + s.name];
    ++t.count;
    t.total_s += s.end - s.start;
    t.self_s += s.end - s.start - covered;
  }
}

// ---------------------------------------------------------------------------
// Source (c): replay probes.
// ---------------------------------------------------------------------------

namespace {

/// Median host seconds per call of `fn`, calling it until `min_s` passed
/// (at least three calls).
double PerCallS(const std::function<void()>& fn, double min_s) {
  std::vector<double> calls;
  const double start = WallS();
  while (calls.size() < 3 || WallS() - start < min_s) {
    const double t0 = WallS();
    fn();
    calls.push_back(WallS() - t0);
  }
  return Median(std::move(calls));
}

/// Runs a host-side coroutine (in-memory sources never suspend on the
/// simulator, so it completes inline).
template <typename T>
T RunInline(sim::Async<T> task) {
  std::optional<T> out;
  sim::Spawn([](sim::Async<T> t, std::optional<T>* o) -> sim::Async<void> {
    o->emplace(co_await std::move(t));
  }(std::move(task), &out));
  LAMBADA_CHECK(out.has_value()) << "host-side read suspended";
  return std::move(*out);
}

std::shared_ptr<format::FileReader> OpenFile(BufferPtr bytes) {
  auto reader = RunInline(format::FileReader::Open(
      std::make_shared<format::InMemorySource>(std::move(bytes))));
  LAMBADA_CHECK_OK(reader.status());
  return *reader;
}

constexpr double kProbeMinS = 0.15;
/// Files replayed through the reader and codec probes.
constexpr size_t kProbeFiles = 16;

}  // namespace

ProbeResults RunReplayProbes(const cloud::ObjectStore& s3, const Dataset& data,
                             const std::vector<core::Query>& queries) {
  ProbeResults p;
  std::vector<BufferPtr> files;
  for (const auto& f : s3.ListDirect(kBucket, "li/")) {
    if (files.size() == kProbeFiles) break;
    auto bytes = s3.GetDirect(kBucket, f.key);
    LAMBADA_CHECK_OK(bytes.status());
    files.push_back(*bytes);
  }

  // format: every row group of every column, file by file.
  double file_bytes = 0;
  for (const auto& f : files) file_bytes += static_cast<double>(f->size());
  p.read_mb = file_bytes / 1e6;
  const double read_s = PerCallS(
      [&] {
        for (const auto& f : files) {
          auto reader = OpenFile(f);
          std::vector<int> cols(reader->schema()->num_fields());
          for (size_t c = 0; c < cols.size(); ++c) {
            cols[c] = static_cast<int>(c);
          }
          for (int rg = 0; rg < reader->num_row_groups(); ++rg) {
            auto chunk = RunInline(reader->ReadRowGroup(rg, cols));
            LAMBADA_CHECK_OK(chunk.status());
          }
        }
      },
      kProbeMinS);
  p.read_host_mb_per_s = p.read_mb / read_s;

  // compress: each column chunk through its codec.
  struct Chunk {
    const uint8_t* data;
    format::ColumnChunkMeta meta;
  };
  std::vector<Chunk> chunks;
  double compressed = 0, uncompressed = 0;
  for (const auto& f : files) {
    auto reader = OpenFile(f);
    for (const auto& rg : reader->metadata().row_groups) {
      for (const auto& cc : rg.columns) {
        chunks.push_back({f->data() + cc.offset, cc});
        compressed += static_cast<double>(cc.compressed_size);
        uncompressed += static_cast<double>(cc.uncompressed_size);
      }
    }
  }
  p.compressed_mb = compressed / 1e6;
  p.compress_ratio = compressed > 0 ? uncompressed / compressed : 0;
  const double decompress_s = PerCallS(
      [&] {
        for (const auto& c : chunks) {
          auto out = compress::GetCodec(c.meta.codec)
                         .Decompress(c.data, c.meta.compressed_size,
                                     c.meta.uncompressed_size);
          LAMBADA_CHECK_OK(out.status());
        }
      },
      kProbeMinS);
  p.decompress_host_mb_per_s = uncompressed / 1e6 / decompress_s;

  // engine: Q1's aggregate over the whole lineitem table.
  const engine::TableChunk& li = data.lineitem;
  p.probe_rows = static_cast<int64_t>(li.num_rows());
  const core::Query q1 = workload::TpchQ1(kLineitemPattern);
  const core::PlanOp& agg_op = q1.ops().back();
  LAMBADA_CHECK(agg_op.kind == core::PlanOp::Kind::kAggregate);
  p.agg_host_ms = 1e3 * PerCallS(
                            [&] {
                              engine::HashAggregator agg(agg_op.group_by,
                                                         agg_op.aggs);
                              LAMBADA_CHECK_OK(agg.ConsumeInput(li));
                              (void)agg.PartialState();
                            },
                            kProbeMinS);

  // engine: lineitem x orders on the order key, and the exchange's
  // partition + serialize step on the same key.
  if (data.orders.num_rows() > 0) {
    p.join_host_ms =
        1e3 * PerCallS(
                  [&] {
                    auto joined = engine::HashJoin(li, {0}, data.orders, {0},
                                                   engine::JoinType::kInner);
                    LAMBADA_CHECK_OK(joined.status());
                  },
                  kProbeMinS);
    constexpr int kPartitions = 64;
    p.partition_serde_host_ms =
        1e3 * PerCallS(
                  [&] {
                    auto ids =
                        engine::ComputePartitionIds(li, {0}, kPartitions);
                    LAMBADA_CHECK_OK(ids.status());
                    for (const auto& part :
                         engine::PartitionBy(li, *ids, kPartitions)) {
                      (void)engine::SerializeChunk(part);
                    }
                  },
                  kProbeMinS);
  }

  // core: the optimizer's plan rendering, per query.
  p.optimize_host_ms =
      1e3 * PerCallS(
                [&] {
                  for (const auto& q : queries) {
                    LAMBADA_CHECK_OK(q.Explain().status());
                  }
                },
                kProbeMinS) /
      static_cast<double>(std::max<size_t>(queries.size(), 1));
  return p;
}

// ---------------------------------------------------------------------------
// The per-layer table.
// ---------------------------------------------------------------------------

namespace {

double Div(double a, double b) { return b > 0 ? a / b : 0; }

std::string Base(const char* what, double n) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s=%.6g", what, n);
  return buf;
}

}  // namespace

std::vector<LayerMetric> PerLayerMetrics(const LayerCounters& t,
                                         const LayerCounters& untraced,
                                         const ProbeResults& p,
                                         const SetupSplit& setup,
                                         double trace_overhead_frac,
                                         const std::string& overhead_base) {
  const double q = static_cast<double>(t.queries);
  const std::string per_query = Base("queries", q);
  auto span_total = [&](const char* key) {
    auto it = t.spans.find(key);
    return it == t.spans.end() ? 0.0 : it->second.total_s;
  };
  double exchange_self = 0;
  for (const auto& [key, s] : t.spans) {
    if (key.rfind("exchange/", 0) == 0 && key != "exchange/barrier") {
      exchange_self += s.self_s;
    }
  }
  const double gets = static_cast<double>(t.cost.s3_get_requests) +
                      t.cost.s3_shared_get_requests;
  const double mb_read = (static_cast<double>(t.cost.s3_bytes_read) +
                          t.cost.s3_shared_bytes_read) / 1e6;
  const double meta_lookups =
      static_cast<double>(t.meta_cache_hits + t.meta_cache_misses);
  const double scan_reads =
      static_cast<double>(t.shared_scan_fetches + t.shared_scan_attaches);
  const double rows_touched =
      static_cast<double>(t.rows_scanned + t.rows_dict_filtered);
  const double events = static_cast<double>(untraced.sim_events);
  const double untraced_q = static_cast<double>(untraced.queries);

  return {
      {"cloud.s3_get_per_query", Div(gets, q), "count", per_query},
      {"cloud.s3_mb_read_per_query", Div(mb_read, q), "MB", per_query},
      {"cloud.s3_put_per_query",
       Div(static_cast<double>(t.cost.s3_put_requests), q), "count",
       per_query},
      {"cloud.lambda_gib_s_per_query", Div(t.cost.lambda_gib_seconds, q),
       "GiB_s", per_query},
      {"cloud.invocations_per_query",
       Div(static_cast<double>(t.cost.lambda_invocations), q), "count",
       per_query},
      {"cloud.sqs_per_query",
       Div(static_cast<double>(t.cost.sqs_requests), q), "count", per_query},
      {"cloud.cold_start_frac",
       Div(static_cast<double>(t.cold_starts), static_cast<double>(t.workers)),
       "ratio", Base("workers", static_cast<double>(t.workers))},
      {"cloud.meta_cache_hit_ratio",
       Div(static_cast<double>(t.meta_cache_hits), meta_lookups), "ratio",
       Base("lookups", meta_lookups)},
      {"cloud.ddb_ops_per_query",
       Div(static_cast<double>(t.cost.ddb_reads + t.cost.ddb_writes), q),
       "count", per_query},
      {"cloud.shared_scan_attach_ratio",
       Div(static_cast<double>(t.shared_scan_attaches), scan_reads), "ratio",
       Base("scan_reads", scan_reads)},
      {"core.plan_s", Div(span_total("driver/plan"), q), "s", per_query},
      {"core.invoke_s", Div(span_total("driver/invoke"), q), "s", per_query},
      {"core.invocation_issue_s", Div(t.invocation_issue_s, q), "s",
       per_query},
      {"core.merge_s", Div(span_total("driver/merge"), q), "s", per_query},
      {"core.exchange_self_s", Div(exchange_self, q), "s", per_query},
      {"core.exchange_barrier_wait_s",
       Div(span_total("exchange/barrier"), q), "s", per_query},
      {"core.exchange_requests_per_query",
       Div(static_cast<double>(t.exchange_requests), q), "count", per_query},
      {"core.exchange_mb_per_query",
       Div(static_cast<double>(t.exchange_bytes) / 1e6, q), "MB", per_query},
      {"core.admission_wait_p50_s", Median(t.admission_waits), "s",
       Base("admitted", static_cast<double>(t.admission_waits.size()))},
      {"core.optimize_host_ms", p.optimize_host_ms, "ms", "per Explain call"},
      {"format.get_s", Div(span_total("scan/get"), q), "s", per_query},
      {"format.decode_s", Div(span_total("scan/decode"), q), "s", per_query},
      {"format.bytes_moved_per_row",
       Div(static_cast<double>(t.scan_bytes_moved),
           static_cast<double>(t.input_rows)),
       "B/row", Base("input_rows", static_cast<double>(t.input_rows))},
      {"format.rows_dict_filtered_frac",
       Div(static_cast<double>(t.rows_dict_filtered), rows_touched), "ratio",
       Base("rows_decoded_or_filtered", rows_touched)},
      {"format.row_groups_pruned_frac",
       Div(static_cast<double>(t.row_groups_pruned),
           static_cast<double>(t.row_groups_total)),
       "ratio",
       Base("row_groups", static_cast<double>(t.row_groups_total))},
      {"format.read_host_mb_per_s", p.read_host_mb_per_s, "MB/s",
       Base("file_mb", p.read_mb)},
      {"format.write_host_s", setup.write_host_s, "s", "per set-up"},
      {"workload.generate_host_s", setup.generate_host_s, "s", "per set-up"},
      {"compress.decompress_host_mb_per_s", p.decompress_host_mb_per_s,
       "MB/s", Base("compressed_mb", p.compressed_mb)},
      {"compress.ratio", p.compress_ratio, "ratio",
       Base("compressed_mb", p.compressed_mb)},
      {"engine.agg_host_ms", p.agg_host_ms, "ms",
       Base("rows", static_cast<double>(p.probe_rows))},
      {"engine.join_host_ms", p.join_host_ms, "ms",
       Base("probe_rows", static_cast<double>(p.probe_rows))},
      {"engine.partition_serde_host_ms", p.partition_serde_host_ms, "ms",
       Base("rows", static_cast<double>(p.probe_rows))},
      {"sim.events_per_query", Div(events, untraced_q), "count",
       Base("queries", untraced_q)},
      {"sim.host_us_per_event", Div(1e6 * untraced.sim_host_s, events), "us",
       Base("events", events)},
      {"obs.trace_overhead_frac", trace_overhead_frac, "ratio", overhead_base},
  };
}

}  // namespace lambada::perfbench
