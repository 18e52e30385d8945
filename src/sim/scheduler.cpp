#include "sim/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/coro.hpp"

namespace ragnar::sim {

Scheduler::~Scheduler() {
  // Drop pending events first: they may hold coroutine handles into tasks_,
  // and destroying a suspended coroutine while an event still references it
  // would leave a dangling handle in the queue.
  queue_.clear();
  tasks_.clear();
}

void Scheduler::note_past_clamp(SimTime t) {
#ifdef RAGNAR_SANITIZE
  std::fprintf(stderr,
               "sim::Scheduler: event scheduled into the past (at %llu ps, "
               "now %llu ps)\n",
               static_cast<unsigned long long>(t),
               static_cast<unsigned long long>(now_));
  std::abort();
#else
  (void)t;
#endif
  ++past_clamps_;
  total_past_clamps_.fetch_add(1, std::memory_order_relaxed);
}

bool Scheduler::step() {
  if (queue_.empty()) return false;
  queue_.run_next([this](SimTime at) {
    now_ = at;
    ++events_processed_;
  });
  // Amortized cleanup of completed actor coroutines.
  if ((events_processed_ & 0xfff) == 0) reap_finished_tasks();
  return true;
}

void Scheduler::run_until_idle() {
  while (step()) {
  }
  reap_finished_tasks();
}

void Scheduler::run_until(SimTime t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  now_ = std::max(now_, t);
  reap_finished_tasks();
}

void Scheduler::run_while(const std::function<bool()>& pred) {
  while (pred() && step()) {
  }
  reap_finished_tasks();
}

void Scheduler::spawn(Task t) {
  tasks_.push_back(std::move(t));
  tasks_.back().start();
}

void Scheduler::reap_finished_tasks() {
  std::erase_if(tasks_, [](const Task& t) { return t.done(); });
}

}  // namespace ragnar::sim
