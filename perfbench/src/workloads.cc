#include "workloads.h"

#include <cmath>
#include <optional>

#include "common/logging.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/session_manager.h"
#include "workload/tpch.h"

namespace lambada::perfbench {

namespace {

/// Independent seed streams derived from the workload seed.
enum Stream : uint64_t { kData = 1, kCloud = 2, kOrder = 3, kArrivals = 4 };

uint64_t SeedFor(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.Next();
}

core::Query MakeQuery(int number) {
  switch (number) {
    case 1:
      return workload::TpchQ1(kLineitemPattern);
    case 6:
      return workload::TpchQ6(kLineitemPattern);
    case 12:
      return workload::TpchQ12(kLineitemPattern, kOrdersPattern);
    case 3:
      return workload::TpchQ3(kLineitemPattern, kOrdersPattern,
                              kCustomerPattern);
    case 18:
      return workload::TpchQ18(kLineitemPattern, kOrdersPattern,
                               kCustomerPattern, kQ18MinQuantity);
  }
  LAMBADA_FATAL() << "unknown query Q" << number;
  return workload::TpchQ1(kLineitemPattern);
}

/// Rows of every relation query `number` scans, for lineitem of `li_rows`.
int64_t InputRows(int number, int64_t li_rows, const Dataset& d) {
  int64_t rows = li_rows;
  if (number == 12 || number == 3 || number == 18) {
    rows += static_cast<int64_t>(d.orders.num_rows());
  }
  if (number == 3 || number == 18) {
    rows += static_cast<int64_t>(d.customer.num_rows());
  }
  return rows;
}

/// Drains the simulator through the benchmark's own Step loop (source d).
void StepAll(sim::Simulator& sim, LayerCounters* layers) {
  const double t0 = WallS();
  int64_t events = 0;
  while (sim.Step()) ++events;
  layers->sim_events += events;
  layers->sim_host_s += WallS() - t0;
}

/// Adds a report line for a query that failed or returned a wrong result.
void NoteFailure(const QueryRecord& rec, const Status& status,
                 PassResult* out) {
  if (rec.completed && rec.correct) return;
  out->notes.push_back(
      "Q" + std::to_string(rec.query) + " " +
      (rec.completed ? std::string("returned a wrong result")
                     : "failed: " + (status.ok() ? std::string("did not finish")
                                                 : status.ToString())));
}

/// Sets the pass's modeled latency/cost metrics and failure counts from
/// its query records.
void Summarize(const std::vector<QueryRecord>& records, PassResult* out) {
  std::vector<double> latencies;
  double usd = 0;
  for (const auto& r : records) {
    ++out->attempted;
    if (!r.completed) {
      ++out->failed;
      continue;
    }
    ++out->completed;
    if (!r.correct) {
      ++out->failed;
      ++out->wrong;
    }
    latencies.push_back(r.latency_s);
    usd += r.cost_usd;
  }
  out->modeled.query_p50_s = Median(latencies);
  out->modeled.query_tail = TailOf(latencies);
  out->modeled.cost_per_query_usd =
      out->completed > 0 ? usd / static_cast<double>(out->completed) : 0;
}

std::unique_ptr<Instance> NewInstance(const cloud::CloudConfig& cfg,
                                      const DatasetSpec& spec, uint64_t seed,
                                      bool with_driver) {
  auto inst = std::make_unique<Instance>();
  const double t0 = WallS();
  inst->cloud = std::make_unique<cloud::Cloud>(cfg);
  if (with_driver) {
    inst->driver = std::make_unique<core::Driver>(inst->cloud.get());
    LAMBADA_CHECK_OK(inst->driver->Install());
  }
  inst->data = GenerateAndLoad(&inst->cloud->s3(), spec,
                               SeedFor(seed, kData));
  inst->setup_host_s = WallS() - t0;
  return inst;
}

// ---------------------------------------------------------------------------
// Closed loop: one client, each query issued when the previous returned.
// ---------------------------------------------------------------------------

class ClosedLoop final : public Workload {
 public:
  struct Spec {
    DatasetSpec data;
    /// (TPC-H query, issues per pass); the seed shuffles the order.
    std::vector<std::pair<int, int>> mix;
    /// Driver::ResetWarm before every query: cold data on a cold fleet.
    bool reset_warm = false;
    /// Interactive latency limit, modeled seconds.
    double slo_s = 0;
    core::RunOptions run;
  };

  ClosedLoop(Spec spec, uint64_t seed) : spec_(std::move(spec)), seed_(seed) {
    for (const auto& [number, count] : spec_.mix) {
      queries_.emplace(number, MakeQuery(number));
      for (int i = 0; i < count; ++i) sequence_.push_back(number);
    }
    Rng rng(SeedFor(seed_, kOrder));
    for (size_t i = sequence_.size(); i > 1; --i) {
      std::swap(sequence_[i - 1], sequence_[rng.Next() % i]);
    }
  }

  std::unique_ptr<Instance> Setup() const override {
    cloud::CloudConfig cfg;
    cfg.seed = SeedFor(seed_, kCloud);
    auto inst = NewInstance(cfg, spec_.data, seed_, /*with_driver=*/true);
    for (const auto& [number, query] : queries_) {
      inst->references[{number, 0}] =
          ComputeReference(number, inst->data.lineitem, inst->data);
    }
    return inst;
  }

  PassResult RunPass(Instance& inst, bool traced,
                     double stop_at_s) const override {
    PassResult out;
    std::vector<QueryRecord> records;
    const auto li_rows = static_cast<int64_t>(inst.data.lineitem.num_rows());
    for (int number : sequence_) {
      if (WallS() >= stop_at_s) break;
      const double wall0 = WallS();
      const double cpu0 = CpuS();
      if (spec_.reset_warm) inst.driver->ResetWarm(spec_.run.memory_mib);
      core::RunOptions ro = spec_.run;
      ro.trace.enabled = traced;
      auto result =
          std::make_shared<std::optional<Result<core::QueryReport>>>();
      sim::Spawn([](core::Driver* driver, const core::Query* q,
                    const core::RunOptions* opts,
                    std::shared_ptr<std::optional<Result<core::QueryReport>>>
                        out) -> sim::Async<void> {
        out->emplace(co_await driver->Run(*q, *opts));
      }(inst.driver.get(), &queries_.at(number), &ro, result));
      StepAll(inst.cloud->sim(), &out.layers);

      QueryRecord rec;
      rec.query = number;
      if (result->has_value() && (*result)->ok()) {
        const core::QueryReport& report = ***result;
        rec.completed = true;
        rec.latency_s = report.latency_s;
        rec.cost_usd = report.CostUsd(inst.cloud->pricing());
        rec.correct = MatchesReference(report.result,
                                       inst.references.at({number, 0}));
        out.layers.AddReport(report,
                             InputRows(number, li_rows, inst.data));
        if (report.trace) out.layers.AddTrace(*report.trace, false);
      }
      NoteFailure(rec, result->has_value() ? (*result)->status() : Status::OK(),
                  &out);
      records.push_back(rec);
      out.host.push_back({"Q" + std::to_string(number), rec.completed ? 1 : 0,
                          WallS() - wall0, CpuS() - cpu0});
    }
    Summarize(records, &out);
    if (records.empty()) return out;
    // The one client's SLO view: the share of queries answered within the
    // limit, and its modeled query rate while its tail meets the limit.
    int within_slo = 0;
    double busy_s = 0;
    for (const auto& r : records) {
      if (r.correct && r.latency_s <= spec_.slo_s) ++within_slo;
      busy_s += r.latency_s;
    }
    out.modeled.slo_attain_frac =
        static_cast<double>(within_slo) / static_cast<double>(records.size());
    if (out.failed == 0 && out.modeled.query_tail.value <= spec_.slo_s) {
      out.modeled.max_qps_at_slo =
          static_cast<double>(out.completed) / busy_s;
    }
    return out;
  }

 private:
  Spec spec_;
  uint64_t seed_;
  std::vector<int> sequence_;
};

// ---------------------------------------------------------------------------
// Open loop: seeded Poisson arrivals from several tenants into one
// QueryService, at each rung of a fixed offered-rate ladder.
// ---------------------------------------------------------------------------

class ServeMix final : public Workload {
 public:
  struct TenantSpec {
    std::string id;
    double share;  ///< Fraction of arrivals.
    int max_concurrent;
  };
  struct Spec {
    DatasetSpec data;
    /// (TPC-H query, weight): each arrival draws its query from these.
    std::vector<std::pair<int, double>> mix;
    std::vector<TenantSpec> tenants;
    int max_concurrent = 16;
    /// Offered rates, queries per modeled second, ascending.
    std::vector<double> ladder;
    /// The rung whose latency, cost and SLO figures are the headline.
    double headline_qps = 0;
    int queries_per_rung = 64;
    /// Latency limit on query_tail_s, modeled seconds.
    double slo_s = 0;
    /// The writer publishes staged append k at (k + 1) * interval.
    double append_interval_s = 0;
    core::RunOptions run;
  };

  ServeMix(Spec spec, uint64_t seed) : spec_(std::move(spec)), seed_(seed) {
    for (const auto& [number, weight] : spec_.mix) {
      queries_.emplace(number, MakeQuery(number));
    }
  }

  std::unique_ptr<Instance> Setup() const override {
    // The set-up cloud only holds the data: each rung copies it into a
    // fresh deployment, so every rung starts from the same state.
    auto inst = NewInstance(CloudConfigFor(), spec_.data, seed_,
                            /*with_driver=*/false);
    for (int v = 0; v <= spec_.data.appends; ++v) {
      const engine::TableChunk li = LineitemAtVersion(inst->data, v);
      for (const auto& [number, query] : queries_) {
        inst->references[{number, v}] =
            ComputeReference(number, li, inst->data);
      }
    }
    return inst;
  }

  PassResult RunPass(Instance& inst, bool traced,
                     double stop_at_s) const override {
    PassResult out;
    bool headline_seen = false;
    double max_qps = 0;
    for (size_t rung = 0; rung < spec_.ladder.size(); ++rung) {
      if (WallS() >= stop_at_s) return out;
      const double rate = spec_.ladder[rung];
      const bool headline = rate == spec_.headline_qps;
      LayerCounters off_headline;  // Counters of the other rungs are dropped.
      const double wall0 = WallS();
      const double cpu0 = CpuS();
      Rung r = RunRung(inst, rung, traced,
                       headline ? &out.layers : &off_headline);
      char kind[32];
      std::snprintf(kind, sizeof(kind), "rung %.3g q/s", rate);
      out.host.push_back({kind, r.pass.completed, WallS() - wall0,
                          CpuS() - cpu0});
      out.attempted += r.pass.attempted;
      out.completed += r.pass.completed;
      out.failed += r.pass.failed;
      out.wrong += r.pass.wrong;
      if (headline) {
        headline_seen = true;
        out.modeled = r.pass.modeled;
        out.modeled.slo_attain_frac = r.slo_attain_frac;
      }
      if (r.meets_slo) max_qps = rate;
      char line[256];
      std::snprintf(
          line, sizeof(line),
          "rung %.3g q/s: p50 %.4f s, tail %.4f s (p%.1f of %zu), slo_attain "
          "%.4f, queue depth first/last third %.2f/%.2f, %s%s",
          rate, r.pass.modeled.query_p50_s, r.pass.modeled.query_tail.value,
          r.pass.modeled.query_tail.percentile,
          r.pass.modeled.query_tail.samples, r.slo_attain_frac,
          r.queue_first, r.queue_last, r.meets_slo ? "meets" : "misses",
          headline ? " [headline]" : "");
      out.notes.push_back(line);
      out.notes.insert(out.notes.end(), r.pass.notes.begin(),
                       r.pass.notes.end());
    }
    LAMBADA_CHECK(headline_seen) << "headline rate is not on the ladder";
    out.modeled.max_qps_at_slo = max_qps;
    return out;
  }

 private:
  struct Arrival {
    double at_s = 0;
    size_t tenant = 0;
    int query = 0;
  };

  /// One rung's run state, shared by its user coroutines.
  struct RungState {
    sim::Simulator* sim = nullptr;
    core::QueryService* svc = nullptr;
    const std::map<int, core::Query>* queries = nullptr;
    std::vector<std::string> tenants;
    core::RunOptions run;
    std::vector<Arrival> arrivals;
    std::vector<std::optional<Result<core::QueryReport>>> results;
    std::vector<double> finished_s;
    std::vector<int> queued_at_arrival;
  };

  struct Rung {
    PassResult pass;
    double slo_attain_frac = 0;
    double queue_first = 0;
    double queue_last = 0;
    bool meets_slo = false;
  };

  cloud::CloudConfig CloudConfigFor() const {
    cloud::CloudConfig cfg;
    cfg.seed = SeedFor(seed_, kCloud);
    return cfg;
  }

  /// Seeded Poisson arrivals at the rung's rate. The tenant shares and
  /// the query mix are exact per rung (rounded counts); the seed shuffles
  /// which arrival gets which, so seeds differ in order, not composition.
  std::vector<Arrival> Arrivals(size_t rung) const {
    Rng rng(SeedFor(seed_, kArrivals + 16 * rung));
    const size_t n = static_cast<size_t>(spec_.queries_per_rung);
    auto exact = [&](const std::vector<double>& weights) {
      double total = 0;
      for (double w : weights) total += w;
      std::vector<size_t> picks;
      double cum = 0;
      for (size_t k = 0; k < weights.size(); ++k) {
        const size_t lo = static_cast<size_t>(std::lround(cum / total * n));
        cum += weights[k];
        const size_t hi = static_cast<size_t>(std::lround(cum / total * n));
        picks.insert(picks.end(), hi - lo, k);
      }
      for (size_t i = picks.size(); i > 1; --i) {
        std::swap(picks[i - 1], picks[rng.Next() % i]);
      }
      return picks;
    };
    std::vector<double> shares, weights;
    for (const auto& t : spec_.tenants) shares.push_back(t.share);
    for (const auto& m : spec_.mix) weights.push_back(m.second);
    const auto tenants = exact(shares);
    const auto queries = exact(weights);
    std::vector<Arrival> out(n);
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng.NextDouble()) / spec_.ladder[rung];
      out[i].at_s = t;
      out[i].tenant = tenants[i];
      out[i].query = spec_.mix[queries[i]].first;
    }
    return out;
  }

  static sim::Async<void> User(RungState* st, size_t i) {
    const Arrival& a = st->arrivals[i];
    co_await sim::Sleep(st->sim, a.at_s - st->sim->Now());
    int queued = 0;
    for (const auto& t : st->tenants) queued += st->svc->Usage(t).queued;
    st->queued_at_arrival[i] = queued;
    std::string tenant = st->tenants[a.tenant];
    core::Query query = st->queries->at(a.query);
    core::RunOptions run = st->run;
    auto result = co_await st->svc->Submit(tenant, query, run);
    st->finished_s[i] = st->sim->Now();
    st->results[i].emplace(std::move(result));
  }

  /// The writer tenant: publishes staged append k into the queried prefix
  /// at (k + 1) * interval; the write observer bumps meta-cache versions.
  static sim::Async<void> Writer(cloud::Cloud* cloud, int appends,
                                 double interval_s) {
    for (int k = 0; k < appends; ++k) {
      co_await sim::Sleep(&cloud->sim(), interval_s);
      auto bytes = cloud->s3().GetDirect(kBucket, StagedAppendKey(k));
      auto scale = cloud->s3().Scale(kBucket, StagedAppendKey(k));
      LAMBADA_CHECK_OK(bytes.status());
      LAMBADA_CHECK_OK(scale.status());
      LAMBADA_CHECK_OK(cloud->s3().PutDirect(kBucket, PublishedAppendKey(k),
                                             *bytes, *scale));
    }
  }

  Rung RunRung(Instance& inst, size_t rung, bool traced,
               LayerCounters* layers) const {
    cloud::Cloud cloud(CloudConfigFor());
    LAMBADA_CHECK_OK(cloud.s3().CreateBucket(kBucket));
    for (const auto& f : inst.cloud->s3().ListDirect(kBucket, "")) {
      auto bytes = inst.cloud->s3().GetDirect(kBucket, f.key);
      auto scale = inst.cloud->s3().Scale(kBucket, f.key);
      LAMBADA_CHECK_OK(bytes.status());
      LAMBADA_CHECK_OK(scale.status());
      LAMBADA_CHECK_OK(cloud.s3().PutDirect(kBucket, f.key, *bytes, *scale));
    }
    core::ServingOptions sopts;
    sopts.max_concurrent = spec_.max_concurrent;
    core::QueryService svc(&cloud, sopts);
    RungState st;
    st.sim = &cloud.sim();
    st.svc = &svc;
    st.queries = &queries_;
    for (const auto& t : spec_.tenants) {
      core::TenantOptions to;
      to.id = t.id;
      to.max_concurrent = t.max_concurrent;
      // Overload shows as latency, never as rejections: a rung past the
      // knee misses the SLO instead of failing queries.
      to.max_queue_depth = 1 << 20;
      to.queue_deadline_s = 1e9;
      LAMBADA_CHECK_OK(svc.AddTenant(to));
      st.tenants.push_back(t.id);
    }
    st.run = spec_.run;
    st.run.trace.enabled = traced;
    st.arrivals = Arrivals(rung);
    const size_t n = st.arrivals.size();
    st.results.resize(n);
    st.finished_s.assign(n, 0);
    st.queued_at_arrival.assign(n, 0);

    sim::Spawn(Writer(&cloud, spec_.data.appends, spec_.append_interval_s));
    for (size_t i = 0; i < n; ++i) sim::Spawn(User(&st, i));
    StepAll(cloud.sim(), layers);

    Rung out;
    std::vector<QueryRecord> records;
    int within_slo = 0;
    const auto base_rows = static_cast<int64_t>(inst.data.lineitem.num_rows());
    const auto append_rows = static_cast<int64_t>(spec_.data.append_rows);
    for (size_t i = 0; i < n; ++i) {
      QueryRecord rec;
      rec.query = st.arrivals[i].query;
      const auto& res = st.results[i];
      if (res.has_value() && res->ok()) {
        const core::QueryReport& report = **res;
        // The files the query listed tell which appends it saw.
        const int version = report.files - spec_.data.lineitem_files;
        auto ref = inst.references.find({rec.query, version});
        rec.completed = true;
        rec.latency_s = st.finished_s[i] - st.arrivals[i].at_s;
        rec.cost_usd = report.CostUsd(cloud.pricing());
        rec.correct = ref != inst.references.end() &&
                      MatchesReference(report.result, ref->second);
        const int64_t li_rows = base_rows + version * append_rows;
        layers->AddReport(report, InputRows(rec.query, li_rows, inst.data));
        if (report.trace) layers->AddTrace(*report.trace, true);
        if (rec.correct && rec.latency_s <= spec_.slo_s) ++within_slo;
      }
      NoteFailure(rec, res.has_value() ? res->status() : Status::OK(),
                  &out.pass);
      records.push_back(rec);
    }
    Summarize(records, &out.pass);
    out.slo_attain_frac =
        static_cast<double>(within_slo) / static_cast<double>(n);
    for (const auto& e : svc.admission_log()) {
      if (e.outcome == "admitted") {
        layers->admission_waits.push_back(e.decided_s - e.submitted_s);
      }
    }
    layers->meta_cache_hits += svc.meta_cache()->hits();
    layers->meta_cache_misses += svc.meta_cache()->misses();
    layers->shared_scan_fetches +=
        svc.metrics().counter(obs::Metric::kSharedScanFetches);
    layers->shared_scan_attaches +=
        svc.metrics().counter(obs::Metric::kSharedScanAttaches);

    // Backlog: queue depth seen by the last third of arrivals against the
    // first third. A stable queue stays within a couple of waiters.
    const size_t third = n / 3;
    double first = 0, last = 0;
    for (size_t i = 0; i < third; ++i) {
      first += st.queued_at_arrival[i];
      last += st.queued_at_arrival[n - 1 - i];
    }
    out.queue_first = first / static_cast<double>(third);
    out.queue_last = last / static_cast<double>(third);
    out.meets_slo = out.pass.failed == 0 &&
                    out.pass.modeled.query_tail.value <= spec_.slo_s &&
                    out.queue_last <= out.queue_first + 2.0;
    return out;
  }

  Spec spec_;
  uint64_t seed_;
};

// ---------------------------------------------------------------------------
// The workload definitions (sizes and probe figures: perfbench/README.md).
// ---------------------------------------------------------------------------

std::unique_ptr<Workload> ColdScan(uint64_t seed) {
  ClosedLoop::Spec s;
  // 256 files of 500 modeled MB, one per worker: a 16 x 16 invocation tree.
  s.data.lineitem_files = 256;
  s.data.lineitem_rows = 256 * 500;
  s.data.row_groups_per_file = 8;
  s.data.lineitem_virtual_bytes = 500 * kMB;
  s.mix = {{1, 60}, {6, 30}};
  s.reset_warm = true;
  s.slo_s = 10.0;
  s.run.files_per_worker = 1;
  return std::make_unique<ClosedLoop>(std::move(s), seed);
}

std::unique_ptr<Workload> JoinShuffle(uint64_t seed) {
  ClosedLoop::Spec s;
  // 64 lineitem files, four per worker: 16 workers. ORDERS is a quarter of
  // LINEITEM by construction. With one file per worker (64 workers) the
  // tail percentile lands among queries hit by modeled PUT stragglers and
  // its spread across seeds exceeds any usable regression bound.
  s.data.lineitem_files = 64;
  s.data.lineitem_rows = 64 * 500;
  s.data.row_groups_per_file = 4;
  s.data.lineitem_virtual_bytes = 500 * kMB;
  s.data.orders_files = 16;
  s.data.customer_files = 4;
  s.data.customer_rows = 10000;
  s.mix = {{12, 150}, {3, 75}, {18, 75}};
  s.slo_s = 30.0;
  // The object store models heavy-tailed PUT stragglers; without
  // mitigation about one query in a thousand waits out the 600 s exchange
  // timeout and fails.
  s.run.mitigation.enabled = true;
  s.run.mitigation.subtree_recovery = true;
  s.run.files_per_worker = 4;
  return std::make_unique<ClosedLoop>(std::move(s), seed);
}

std::unique_ptr<Workload> ServeMixWorkload(uint64_t seed) {
  ServeMix::Spec s;
  s.data.lineitem_files = 16;
  s.data.lineitem_rows = 16 * 1000;
  s.data.row_groups_per_file = 4;
  s.data.lineitem_virtual_bytes = 500 * kMB;
  s.data.orders_files = 4;
  s.data.appends = 8;
  s.data.append_rows = 1000;
  s.mix = {{1, 0.4}, {6, 0.4}, {12, 0.2}};
  s.tenants = {{"analysts", 0.5, 8}, {"dashboards", 0.3, 6}, {"adhoc", 0.2, 4}};
  s.max_concurrent = 16;
  s.ladder = {2, 4, 6, 14};
  s.headline_qps = 4;
  s.queries_per_rung = 256;
  s.slo_s = 6.0;
  s.append_interval_s = 6.0;
  s.run.files_per_worker = 1;
  // Q12 broadcasts ORDERS: a partitioned exchange would need straggler
  // mitigation to survive the modeled PUT tail (see join_shuffle), and
  // mitigation under QueryService returns corrupted and wrong results
  // (perfbench/README.md, "Known defects").
  s.run.join_strategy = core::JoinStrategyOverride::kForceBroadcast;
  return std::make_unique<ServeMix>(std::move(s), seed);
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "cold_scan") return ColdScan(seed);
  if (name == "join_shuffle") return JoinShuffle(seed);
  if (name == "serve_mix") return ServeMixWorkload(seed);
  return nullptr;
}

}  // namespace lambada::perfbench
