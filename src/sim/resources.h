#ifndef LAMBADA_SIM_RESOURCES_H_
#define LAMBADA_SIM_RESOURCES_H_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/async.h"
#include "sim/simulator.h"

namespace lambada::sim {

/// Token bucket with *reservation* semantics for request-rate limits
/// (e.g., S3 per-bucket request rates). ReserveDelay deducts tokens
/// immediately — the balance may go negative, which models a FIFO queue —
/// and returns how long the caller must wait before proceeding.
class TokenBucket {
 public:
  /// `rate`: tokens replenished per second; `burst`: maximum balance.
  TokenBucket(double rate, double burst)
      : rate_(rate), burst_(burst), tokens_(burst) {}

  /// Reserves `tokens` at time `now`; returns the wait before the
  /// reservation becomes valid (0 when tokens are available).
  double ReserveDelay(Time now, double tokens = 1.0) {
    Refill(now);
    tokens_ -= tokens;
    if (tokens_ >= 0) return 0.0;
    return -tokens_ / rate_;
  }

  /// Current wait a new 1-token reservation would incur (non-mutating).
  double CurrentDelay(Time now, double tokens = 1.0) const {
    double t = tokens_ + (now - last_) * rate_;
    if (t > burst_) t = burst_;
    t -= tokens;
    return t >= 0 ? 0.0 : -t / rate_;
  }

  double rate() const { return rate_; }

 private:
  void Refill(Time now) {
    tokens_ += (now - last_) * rate_;
    if (tokens_ > burst_) tokens_ = burst_;
    last_ = now;
  }

  double rate_;
  double burst_;
  double tokens_;
  Time last_ = 0;
};

/// One job of a shared resource: its outstanding work and the coroutine
/// waiting for it to finish. It lives inside a JobAwaiter in the awaiting
/// coroutine's frame, so queuing work on a resource allocates nothing.
struct ResourceJob {
  double remaining = 0;
  std::coroutine_handle<> waiter;
};

/// Awaiter that queues `work` units on `resource` and resumes the awaiting
/// coroutine once they have been served. Completes at once when `work` is
/// not positive or `resource` is null.
template <typename Resource>
class [[nodiscard]] JobAwaiter {
 public:
  JobAwaiter(Resource* resource, double work)
      : resource_(resource), job_{work, {}} {}

  bool await_ready() const noexcept {
    return resource_ == nullptr || job_.remaining <= 0;
  }
  void await_suspend(std::coroutine_handle<> h) {
    // The job's address is taken only here, once the awaiter sits at its
    // final place in the frame: a prvalue awaiter may be copied bitwise
    // into the frame after construction.
    job_.waiter = h;
    resource_->Enqueue(&job_);
  }
  void await_resume() const noexcept {}

 private:
  Resource* resource_;
  ResourceJob job_;
};

/// Processor-sharing resource modeling the fractional CPU allocation of a
/// serverless function (Section 4.1 / Figure 4 of the paper).
///
/// The resource has total capacity `capacity` (in vCPUs) and each job
/// (thread) can use at most `per_job_cap` (1 vCPU). With n active jobs,
/// each runs at rate min(per_job_cap, capacity / n). `Consume(w)` completes
/// after the job has accumulated `w` vCPU-seconds of service.
class ProcessorSharing {
 public:
  ProcessorSharing(Simulator* sim, double capacity, double per_job_cap = 1.0);
  ~ProcessorSharing();
  ProcessorSharing(const ProcessorSharing&) = delete;
  ProcessorSharing& operator=(const ProcessorSharing&) = delete;

  using ConsumeAwaiter = JobAwaiter<ProcessorSharing>;

  /// Suspends until `work` vCPU-seconds of service have been delivered.
  ConsumeAwaiter Consume(double work) { return {this, work}; }

  double capacity() const { return capacity_; }
  int active_jobs() const { return static_cast<int>(jobs_.size()); }
  /// Service rate a single job currently receives.
  double CurrentRatePerJob() const;

 private:
  friend class JobAwaiter<ProcessorSharing>;

  static void TimerFired(void* self, uint64_t epoch) {
    static_cast<ProcessorSharing*>(self)->OnTimer(epoch);
  }

  void Enqueue(ResourceJob* job);  // `remaining` in vCPU-seconds.
  void Advance();     // Applies service since last event time.
  void Reschedule();  // Schedules the next completion event.
  void OnTimer(uint64_t epoch);

  Simulator* sim_;
  double capacity_;
  double per_job_cap_;
  std::vector<ResourceJob*> jobs_;  // In arrival order.
  Time last_update_ = 0;
  uint64_t epoch_ = 0;  // Invalidates stale timer events.
};

/// A shared network link with credit-based traffic shaping, modeling the
/// per-function NIC observed in Figures 6a/6b of the paper: sustained
/// ~90 MiB/s, with a burst credit bucket that allows short transfers to
/// reach a higher peak, and a per-connection cap (S3 serves each HTTP
/// connection at ~90 MiB/s).
class SharedLink {
 public:
  struct Config {
    double sustained_bps;     ///< Long-run bandwidth (bytes/s).
    double peak_bps;          ///< Burst bandwidth while credits last.
    double credit_bytes;      ///< Credit bucket size (bytes above sustained).
    double per_conn_bps;      ///< Per-connection cap (bytes/s).
  };

  SharedLink(Simulator* sim, const Config& config);
  SharedLink(const SharedLink&) = delete;
  SharedLink& operator=(const SharedLink&) = delete;

  /// Transfers `bytes` through the link as one connection; completes when
  /// the last byte has been delivered.
  Async<void> Transfer(double bytes);

  int active_transfers() const { return static_cast<int>(jobs_.size()); }
  double credits() const { return credits_; }

 private:
  friend class JobAwaiter<SharedLink>;

  static void TimerFired(void* self, uint64_t epoch) {
    static_cast<SharedLink*>(self)->OnTimer(epoch);
  }

  void Enqueue(ResourceJob* job);  // `remaining` in bytes.
  /// Aggregate throughput (bytes/s) for the current state.
  double Throughput() const;
  void Advance();
  void Reschedule();
  void OnTimer(uint64_t epoch);

  Simulator* sim_;
  Config config_;
  std::vector<ResourceJob*> jobs_;  // In arrival order.
  double credits_;
  Time last_update_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace lambada::sim

#endif  // LAMBADA_SIM_RESOURCES_H_
