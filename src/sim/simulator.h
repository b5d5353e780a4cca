#ifndef LAMBADA_SIM_SIMULATOR_H_
#define LAMBADA_SIM_SIMULATOR_H_

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.h"

namespace lambada::sim {

/// Virtual time in seconds.
using Time = double;

/// Single-threaded discrete-event simulator.
///
/// All simulated activity is expressed as callbacks scheduled at virtual
/// times. Coroutine-based processes (see async.h) are resumed through
/// scheduled callbacks, so the entire simulation is deterministic: events
/// fire in (time, seq) order, where seq is the scheduling order, so events
/// with equal timestamps fire in scheduling order.
///
/// An event is a plain entry {time, seq, callback, ctx, arg}: resuming a
/// coroutine or firing a resource timer allocates nothing. Events land in
/// one of two lanes. Those scheduled at Now() (wakeups: Event::Set,
/// Semaphore::Release, zero sleeps) join a FIFO lane; later ones go to a
/// binary heap. Every heap entry for time T was scheduled before the clock
/// reached T, so the FIFO lane never reorders events: Step pops whichever
/// lane head is smaller in (time, seq), exactly the single-queue order.
class Simulator {
 public:
  /// Event callback: `ctx` and `arg` are the values passed at scheduling.
  using Callback = void (*)(void* ctx, uint64_t arg);

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator() {
    // Free the boxed std::functions of events that never fired.
    auto free_boxed = [](const Entry& e) {
      if (e.fn == &RunBoxed) delete static_cast<std::function<void()>*>(e.ctx);
    };
    std::for_each(heap_.begin(), heap_.end(), free_boxed);
    std::for_each(fifo_.begin() + static_cast<ptrdiff_t>(fifo_head_),
                  fifo_.end(), free_boxed);
  }

  /// Current virtual time.
  Time Now() const { return now_; }

  /// Schedules `fn(ctx, arg)` at absolute time `t` (must be >= Now()).
  void ScheduleAt(Time t, Callback fn, void* ctx, uint64_t arg = 0) {
    LAMBADA_DCHECK(t >= now_ - 1e-9) << "scheduling into the past";
    Entry e{t, next_seq_++, fn, ctx, arg};
    if (t <= now_) {
      e.time = now_;
      fifo_.push_back(e);
    } else {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
  }

  /// Schedules `fn(ctx, arg)` after a relative delay `dt` (clamped to >= 0).
  void ScheduleAfter(Time dt, Callback fn, void* ctx, uint64_t arg = 0) {
    ScheduleAt(now_ + (dt > 0 ? dt : 0), fn, ctx, arg);
  }

  /// Resumes the coroutine `h` after `dt` (clamped to >= 0).
  void ResumeAfter(Time dt, std::coroutine_handle<> h) {
    ScheduleAfter(dt, &Resume, h.address());
  }

  /// Schedules an arbitrary closure at absolute time `t`. The closure is
  /// boxed on the heap; hot paths use the callback form instead.
  void ScheduleAt(Time t, std::function<void()> fn) {
    ScheduleAt(t, &RunBoxed, new std::function<void()>(std::move(fn)));
  }

  /// Schedules a closure after a relative delay `dt` (clamped to >= 0).
  void ScheduleAfter(Time dt, std::function<void()> fn) {
    ScheduleAt(now_ + (dt > 0 ? dt : 0), std::move(fn));
  }

  /// Runs events until the queue is empty. Returns the final time.
  Time Run() {
    while (Step()) {
    }
    return now_;
  }

  /// Runs events with timestamps <= `until`. Later events stay queued and
  /// `Now()` advances to `until`.
  Time RunUntil(Time until) {
    while (!empty() && Next().time <= until) {
      Step();
    }
    if (now_ < until) now_ = until;
    return now_;
  }

  /// Executes the next event, if any. Returns false when idle.
  bool Step() {
    // Pop before invoking: the callback may schedule new events.
    Entry ev;
    if (FifoNext()) {
      ev = fifo_[fifo_head_];
      if (++fifo_head_ == fifo_.size()) {
        fifo_.clear();
        fifo_head_ = 0;
      }
    } else if (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      ev = heap_.back();
      heap_.pop_back();
    } else {
      return false;
    }
    now_ = ev.time;
    ev.fn(ev.ctx, ev.arg);
    return true;
  }

  bool empty() const { return heap_.empty() && fifo_head_ == fifo_.size(); }
  size_t pending_events() const {
    return heap_.size() + (fifo_.size() - fifo_head_);
  }

 private:
  struct Entry {
    Time time;
    uint64_t seq;  // Tie-breaker: FIFO among equal timestamps.
    Callback fn;
    void* ctx;
    uint64_t arg;
  };
  // Heap order: the entry that fires later compares greater.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Whether the next event in (time, seq) order is the FIFO lane's head
  /// (otherwise it is the heap's top, if any).
  bool FifoNext() const {
    if (fifo_head_ == fifo_.size()) return false;
    return heap_.empty() || !Later{}(fifo_[fifo_head_], heap_.front());
  }
  /// The next event; requires !empty().
  const Entry& Next() const {
    return FifoNext() ? fifo_[fifo_head_] : heap_.front();
  }

  static void Resume(void* ctx, uint64_t) {
    std::coroutine_handle<>::from_address(ctx).resume();
  }
  static void RunBoxed(void* ctx, uint64_t) {
    std::unique_ptr<std::function<void()>> fn(
        static_cast<std::function<void()>*>(ctx));
    (*fn)();
  }

  std::vector<Entry> heap_;  // Min-heap on (time, seq) via Later.
  std::vector<Entry> fifo_;  // Entries at Now(), in seq order, from fifo_head_.
  size_t fifo_head_ = 0;
  Time now_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace lambada::sim

#endif  // LAMBADA_SIM_SIMULATOR_H_
