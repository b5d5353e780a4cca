// Reproduces Figure 4 of the paper: relative compute performance of
// serverless workers vs memory size, with one or two threads. A fixed
// amount of number crunching runs inside workers of various sizes; the
// throughput relative to a single-threaded 1792 MiB worker is reported.

#include "bench_util.h"
#include "cloud/cloud.h"

using namespace lambada;        // NOLINT
using namespace lambada::bench; // NOLINT
using sim::Async;

namespace {

/// One thread of number crunching.
Async<void> Crunch(cloud::WorkerEnv* env, double vcpu_seconds) {
  co_await env->Compute(vcpu_seconds);
}

/// Time to complete `work_per_thread` vCPU-seconds on `threads` threads in
/// a worker of the given size.
double MeasureCompute(int memory_mib, int threads,
                      double work_per_thread = 1.0) {
  cloud::Cloud cloud;
  cloud::FunctionConfig fn;
  fn.name = "crunch";
  fn.memory_mib = memory_mib;
  double duration = -1;
  fn.handler = [&, threads, work_per_thread](
                   cloud::WorkerEnv& env, std::string) -> Async<Status> {
    double t0 = env.sim()->Now();
    std::vector<Async<void>> tasks;
    for (int i = 0; i < threads; ++i) {
      tasks.push_back(Crunch(&env, work_per_thread));
    }
    co_await sim::WhenAllVoid(env.sim(), std::move(tasks));
    duration = env.sim()->Now() - t0;
    co_return Status::OK();
  };
  LAMBADA_CHECK_OK(cloud.faas().CreateFunction(fn));
  sim::Spawn([](cloud::Cloud* c) -> Async<void> {
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "crunch", "");
  }(&cloud));
  cloud.sim().Run();
  return duration;
}

}  // namespace

int main() {
  Banner("Figure 4", "relative compute performance vs memory size");
  // Baseline: single thread at 1792 MiB (exactly one vCPU).
  const double base_throughput = 1.0 / MeasureCompute(1792, 1);
  Table t({"memory [MiB]", "1 thread [%]", "2 threads [%]"});
  for (int mem : {256, 512, 1024, 1792, 2048, 2560, 3008}) {
    double t1 = MeasureCompute(mem, 1);
    double t2 = MeasureCompute(mem, 2);
    // Two threads do 2x the total work; throughput = work / time.
    double rel1 = (1.0 / t1) / base_throughput * 100.0;
    double rel2 = (2.0 / t2) / base_throughput * 100.0;
    t.Row({FmtInt(mem), Fmt("%.0f", rel1), Fmt("%.0f", rel2)});
  }
  std::printf(
      "\nPaper: performance proportional to memory below 1792 MiB; one\n"
      "thread caps at 100%%; two threads reach ~167%% at 3008 MiB.\n");
  return 0;
}
