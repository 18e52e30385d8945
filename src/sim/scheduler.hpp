#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ragnar::sim {

class Task;

// The discrete-event engine.  Every simulated component (NIC units, hosts,
// attack actors) schedules work through one Scheduler; experiment drivers
// spawn coroutine actors and run the scheduler until a condition holds.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  SimTime now() const { return now_; }

  // Schedule a callable at an absolute / relative time.  The callable is
  // built in place in the event queue's slab (sim::InlineFn): a capture of
  // up to 160 bytes costs no allocation.  Scheduling in the past is an
  // error in the model: sanitizer builds (RAGNAR_SANITIZE) abort on it,
  // release builds clamp it to `now` and count it in past_clamps().
  template <typename F>
  void at(SimTime t, F&& fn) {
    if (t < now_) [[unlikely]] {
      note_past_clamp(t);
      t = now_;
    }
    queue_.push(t, std::forward<F>(fn));
  }
  template <typename F>
  void after(SimDur d, F&& fn) {
    at(now_ + d, std::forward<F>(fn));
  }

  // at() calls clamped to `now` on this scheduler / on every scheduler of
  // the process (the latter lets a test check a whole scenario run).
  std::uint64_t past_clamps() const { return past_clamps_; }
  static std::uint64_t total_past_clamps() {
    return total_past_clamps_.load(std::memory_order_relaxed);
  }

  // Run one event.  Returns false when the queue is empty.
  bool step();
  // Run until no events remain.
  void run_until_idle();
  // Run all events with timestamp <= t, then advance the clock to t.
  void run_until(SimTime t);
  // Run events while pred() is true (checked before each event) and the
  // queue is non-empty.
  void run_while(const std::function<bool()>& pred);

  std::size_t pending() const { return queue_.size(); }
  // Timestamp of the earliest pending event (precondition: pending() > 0).
  // The windowed engine reads this to pick the next window floor.
  SimTime next_event_time() const { return queue_.next_time(); }
  std::uint64_t events_processed() const { return events_processed_; }

  // --- coroutine support -------------------------------------------------
  // Take ownership of an actor coroutine and start it.  The scheduler keeps
  // the coroutine alive until it completes (finished actors are reaped
  // lazily).
  void spawn(Task t);

  // `co_await sched.sleep(d)` suspends the current actor for d picoseconds.
  struct SleepAwaiter {
    Scheduler* sched;
    SimDur dur;
    bool await_ready() const noexcept { return dur == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      sched->after(dur, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  SleepAwaiter sleep(SimDur d) { return SleepAwaiter{this, d}; }
  // Yield to events at the current timestamp (reschedule at `now`).
  SleepAwaiter yield() { return SleepAwaiter{this, 1}; }

 private:
  void reap_finished_tasks();
  void note_past_clamp(SimTime t);

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t past_clamps_ = 0;
  static inline std::atomic<std::uint64_t> total_past_clamps_{0};
  std::vector<Task> tasks_;
};

}  // namespace ragnar::sim
