#include "sim/resources.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lambada::sim {

namespace {
constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Smallest timer delta we schedule. Deltas below the clock's ULP would
// not advance virtual time at all, re-firing the same event forever; any
// work that would finish within this quantum is completed immediately.
constexpr double kMinTick = 1e-9;

/// Wakes (in queue order) and drops the jobs with at most `quantum` work
/// left, keeping the others in arrival order. Each wakeup is scheduled at
/// Now(), not run inline, as Event::Set does.
void CompleteJobs(Simulator* sim, std::vector<ResourceJob*>* jobs,
                  double quantum) {
  size_t kept = 0;
  for (ResourceJob* job : *jobs) {
    if (job->remaining <= quantum) {
      sim->ResumeAfter(0, job->waiter);
    } else {
      (*jobs)[kept++] = job;
    }
  }
  jobs->resize(kept);
}
}  // namespace

// ---------------------------------------------------------------------------
// ProcessorSharing
// ---------------------------------------------------------------------------

ProcessorSharing::ProcessorSharing(Simulator* sim, double capacity,
                                   double per_job_cap)
    : sim_(sim), capacity_(capacity), per_job_cap_(per_job_cap) {
  LAMBADA_CHECK_GT(capacity, 0.0);
  LAMBADA_CHECK_GT(per_job_cap, 0.0);
  last_update_ = sim->Now();
}

ProcessorSharing::~ProcessorSharing() {
  LAMBADA_CHECK(jobs_.empty()) << "destroying CPU with active jobs";
}

double ProcessorSharing::CurrentRatePerJob() const {
  if (jobs_.empty()) return std::min(per_job_cap_, capacity_);
  return std::min(per_job_cap_,
                  capacity_ / static_cast<double>(jobs_.size()));
}

void ProcessorSharing::Advance() {
  Time now = sim_->Now();
  double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0 || jobs_.empty()) return;
  double rate = CurrentRatePerJob();
  for (auto& job : jobs_) {
    job->remaining -= rate * dt;
  }
}

void ProcessorSharing::Reschedule() {
  ++epoch_;
  if (jobs_.empty()) return;
  double rate = CurrentRatePerJob();
  double min_remaining = kInf;
  for (const auto& job : jobs_) {
    min_remaining = std::min(min_remaining, job->remaining);
  }
  double dt = std::max(kMinTick, min_remaining / rate);
  sim_->ScheduleAfter(dt, &ProcessorSharing::TimerFired, this, epoch_);
}

void ProcessorSharing::OnTimer(uint64_t epoch) {
  if (epoch != epoch_) return;  // A newer event supersedes this one.
  Advance();
  // Complete anything that would finish within one minimal tick; leaving
  // it active would schedule a sub-ULP delta and freeze virtual time.
  CompleteJobs(sim_, &jobs_, CurrentRatePerJob() * kMinTick + kEps);
  Reschedule();
}

void ProcessorSharing::Enqueue(ResourceJob* job) {
  Advance();
  jobs_.push_back(job);
  Reschedule();
}

// ---------------------------------------------------------------------------
// SharedLink
// ---------------------------------------------------------------------------

SharedLink::SharedLink(Simulator* sim, const Config& config)
    : sim_(sim), config_(config), credits_(config.credit_bytes) {
  LAMBADA_CHECK_GT(config.sustained_bps, 0.0);
  LAMBADA_CHECK_GE(config.peak_bps, config.sustained_bps);
  LAMBADA_CHECK_GE(config.credit_bytes, 0.0);
  LAMBADA_CHECK_GT(config.per_conn_bps, 0.0);
  last_update_ = sim->Now();
}

double SharedLink::Throughput() const {
  if (jobs_.empty()) return 0.0;
  double n = static_cast<double>(jobs_.size());
  // What the connections could deliver if only per-connection caps and the
  // burst peak applied.
  double desired = std::min(n * config_.per_conn_bps, config_.peak_bps);
  if (credits_ > kEps) return desired;
  // Credits exhausted: the shaper clamps the aggregate to the sustained
  // rate (unless demand is below it anyway).
  return std::min(desired, config_.sustained_bps);
}

void SharedLink::Advance() {
  Time now = sim_->Now();
  double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0) return;
  double throughput = Throughput();
  // Credits refill at the sustained rate and drain with actual throughput.
  credits_ += (config_.sustained_bps - throughput) * dt;
  credits_ = std::clamp(credits_, 0.0, config_.credit_bytes);
  if (jobs_.empty()) return;
  double per_transfer = throughput / static_cast<double>(jobs_.size());
  for (auto& job : jobs_) {
    job->remaining -= per_transfer * dt;
  }
}

void SharedLink::Reschedule() {
  ++epoch_;
  if (jobs_.empty()) return;
  double throughput = Throughput();
  double per_transfer = throughput / static_cast<double>(jobs_.size());
  double min_remaining = kInf;
  for (const auto& job : jobs_) {
    min_remaining = std::min(min_remaining, job->remaining);
  }
  double dt_complete =
      per_transfer > 0 ? min_remaining / per_transfer : kInf;
  // The rates change when the credit bucket empties.
  double drain = throughput - config_.sustained_bps;
  double dt_credits =
      (credits_ > kEps && drain > kEps) ? credits_ / drain : kInf;
  double dt = std::max(kMinTick, std::min(dt_complete, dt_credits));
  LAMBADA_CHECK(dt != kInf) << "link stalled with active transfers";
  sim_->ScheduleAfter(dt, &SharedLink::TimerFired, this, epoch_);
}

void SharedLink::OnTimer(uint64_t epoch) {
  if (epoch != epoch_) return;
  Advance();
  double quantum = kEps;
  if (!jobs_.empty()) {
    quantum += Throughput() / static_cast<double>(jobs_.size()) * kMinTick;
  }
  CompleteJobs(sim_, &jobs_, quantum);
  Reschedule();
}

void SharedLink::Enqueue(ResourceJob* job) {
  Advance();
  jobs_.push_back(job);
  Reschedule();
}

Async<void> SharedLink::Transfer(double bytes) {
  co_await JobAwaiter<SharedLink>(this, bytes);
}

}  // namespace lambada::sim
