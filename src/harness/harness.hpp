#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/time.hpp"

// Parallel sweep-execution engine.  Every reproduction binary runs a grid of
// *independent* simulation trials (each trial owns its own sim::Scheduler and
// Testbed), so the sweep is embarrassingly parallel.  The SweepRunner farms
// trials across a std::thread pool while keeping the results bit-identical
// to a serial run:
//
//   * Determinism contract — a trial may draw randomness only from
//     TrialContext::seed (derived as f(base_seed, trial_index) via a
//     splitmix64 mix, never from thread identity, wall time, or submission
//     order), and may touch only trial-local state.  Results are collected
//     into a slot keyed by trial index and reported in index order, so the
//     aggregate output is byte-identical for any --jobs value.
//   * Bounded dispatch — trial descriptors flow through a bounded
//     work queue, so a million-cell grid never materializes a million queued
//     closures ahead of the workers.
//   * Accounting — per-trial wall-clock time is measured by the runner;
//     trials report their simulated end time through the context, giving a
//     wall-vs-simulated speed picture per cell.
//
// Aggregation plugs into the bench `--csv DIR` convention: each trial
// returns a Record (ordered field -> printed value), and the report writes
// one CSV row per trial plus an optional JSON dump.
namespace ragnar::harness {

// Deterministic per-trial seed: a splitmix64 finalizer over (base, index).
// Stable across platforms and library versions — tests pin its values.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t trial_index);

// An ordered list of named, pre-formatted values.  Formatting happens inside
// the trial (with an explicit precision) so that aggregate output cannot
// depend on locale or accumulated float state.
class Record {
 public:
  void set(std::string key, std::string value);
  void set(std::string key, double value, int precision = 6);
  void set(std::string key, std::uint64_t value);
  void set(std::string key, std::int64_t value);

  const std::string* find(const std::string& key) const;
  const std::vector<std::pair<std::string, std::string>>& fields() const {
    return fields_;
  }
  bool operator==(const Record& o) const { return fields_ == o.fields_; }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Per-trial fault/retry accounting for sweeps that arm a faults::FaultPlan.
// Reported through TrialContext::note_faults; the CSV/JSON writers add the
// fault columns only when at least one trial noted accounting, so fault-free
// sweeps keep their exact pre-fault schema.
struct FaultAccounting {
  std::uint64_t delivered = 0;       // messages the fabric delivered
  std::uint64_t injected_drops = 0;  // drops + corrupt-discards + flap losses
  std::uint64_t retransmits = 0;     // transport-timer re-posts by trial QPs
  std::uint64_t rnr_retries = 0;     // RNR backoff re-posts by trial QPs
  // Campaign breakdown (all zero when the plan armed nothing of the kind).
  std::uint64_t corrupted = 0;       // payload corruptions injected
  std::uint64_t flap_dropped = 0;    // losses attributed to flap windows
  std::uint64_t reordered = 0;       // deliveries the injector re-ordered
  std::uint64_t ge_steps = 0;        // Gilbert-Elliott chain steps taken
  std::uint64_t ge_bad_steps = 0;    // ... of which in the bad state
};

// Handed to each trial closure.
struct TrialContext {
  std::size_t index = 0;       // position in the sweep grid
  std::uint64_t seed = 0;      // derive_seed(base_seed, index)
  // Trial-reported simulated end time (e.g. sched.now() after the run).
  // Mutable through the pointer held by the closure.
  sim::SimTime sim_end = 0;
  FaultAccounting faults;
  bool faults_noted = false;
  // Trial-local observability hub, installed as the ambient obs::current()
  // for the trial's duration when Options::obs is set; nullptr otherwise.
  // The runner snapshots its registry (and drains its tracer) after the
  // trial returns, so recorded metrics land in the CSV/JSON aggregation
  // without any per-bench plumbing.
  obs::Hub* obs = nullptr;

  void note_sim_time(sim::SimTime t) { sim_end = t; }
  void note_faults(const FaultAccounting& f) {
    faults = f;
    faults_noted = true;
  }
};

// Completed-trial bookkeeping, reported in submission order.
struct TrialResult {
  std::string label;
  std::size_t index = 0;
  std::uint64_t seed = 0;
  Record record;
  double wall_ms = 0;        // host wall-clock spent inside the trial
  sim::SimTime sim_end = 0;  // simulated clock when the trial finished
  FaultAccounting faults;
  bool faults_noted = false;
  // Registry snapshot and drained trace events from the trial's hub (empty
  // when Options::obs was off).  Trace events carry pid = index + 1 so a
  // merged Chrome trace shows one process row per trial.
  obs::MetricsSnapshot metrics;
  std::vector<obs::TraceEvent> trace;
  std::uint64_t trace_dropped = 0;
  // Streaming-sink accounting (Options::stream): total samples published
  // and ring-overflow drops across every channel of the trial's sink.
  // Silent sample loss would quietly bias any online detector consuming the
  // stream, so the writers surface the drop counters per trial (columns /
  // fields appear only when a trial armed a sink).
  std::uint64_t stream_published = 0;
  std::uint64_t stream_dropped = 0;
  bool stream_noted = false;
  // Closed-loop enforcement audit (docs/DEFENSE.md §closed loop): cap
  // applies / lifts counted off the trial sink's EnforcementAction channel
  // at trial end.  Counted from the live ring (peek), so a pathological
  // ring overflow undercounts — visible via stream_dropped.  Columns
  // appear only when some trial recorded an action.
  std::uint64_t actions_applied = 0;
  std::uint64_t actions_lifted = 0;
};

struct SweepReport {
  std::vector<TrialResult> trials;  // always in submission (index) order
  double total_wall_ms = 0;         // wall clock of the whole run() call
  std::size_t jobs = 1;             // worker count actually used

  // Sum of per-trial wall time: the serial-equivalent cost, so
  // speedup ~= serial_wall_ms() / total_wall_ms.
  double serial_wall_ms() const;

  // Write one CSV row per trial (columns: label, index, seed, wall_ms,
  // sim_end_ns, then every record field of the first trial, then — when any
  // trial carries a registry snapshot — one column per metric cell, in
  // first-appearance order over trials in index order) into
  // `<dir>/<name>.csv`.  No-op when dir is empty.  Returns the path written.
  std::string write_csv(const std::string& dir, const std::string& name) const;
  // Same rows as a JSON array of objects: to_json() renders it (no
  // trailing newline), write_json() writes it to `path`.
  std::string to_json() const;
  void write_json(const std::string& path) const;
  // Merge every trial's span events into one Chrome trace_event JSON file.
  // Returns false when no events were captured or the file cannot be
  // written.
  bool write_chrome_trace(const std::string& path) const;

  // Union of metric columns across trials, in first-appearance order
  // (deterministic: trials are always in index order).
  std::vector<std::string> metric_columns() const;
};

// Single-producer bounded queue used for dispatch.  Kept public for tests.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(T item) {
    std::unique_lock<std::mutex> lk(mu_);
    not_full_.wait(lk, [&] { return items_.size() < capacity_; });
    items_.push_back(std::move(item));
    not_empty_.notify_one();
  }

  // Blocks until an item arrives or the queue is closed and drained.
  bool pop(T* out) {
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait(lk, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  void close() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

 private:
  std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

class SweepRunner {
 public:
  struct Options {
    // Worker threads; 0 = std::thread::hardware_concurrency().  1 runs
    // every trial inline on the calling thread (no pool).
    std::size_t jobs = 0;
    std::uint64_t base_seed = 2024;
    // Dispatch-queue capacity; 0 = 2 * jobs.
    std::size_t queue_capacity = 0;
    // Observability: when set, each trial runs under its own obs::Hub
    // (ambient obs::current()), and its registry snapshot is appended to
    // the CSV/JSON aggregation.  `trace` additionally arms span tracing
    // with a per-trial ring of `trace_capacity` events.  Off by default:
    // fault-free, obs-free runs schedule the exact pre-obs event sequence.
    bool obs = false;
    bool trace = false;
    std::size_t trace_capacity = 4096;
    // Streaming sink: requires `obs`; arms a per-trial obs::StreamSink with
    // `stream_capacity` samples per channel.  The runner records the sink's
    // published/dropped totals into the TrialResult after the trial returns
    // (whatever samples remain in the rings are discarded — consumers such
    // as defense::online::OnlinePipeline drain during the trial).
    bool stream = false;
    std::size_t stream_capacity = obs::StreamSink::kDefaultCapacity;
  };

  // A trial builds its whole world (testbed, channel, ...) from ctx.seed,
  // runs it, and returns the measured record.
  using TrialFn = std::function<Record(TrialContext& ctx)>;

  // Enqueue one trial; returns its index within the sweep.
  std::size_t add(std::string label, TrialFn fn);
  std::size_t size() const { return trials_.size(); }

  // Execute every added trial and return results in submission order.
  // May be called once per runner.
  SweepReport run(const Options& opts);

 private:
  struct PendingTrial {
    std::string label;
    TrialFn fn;
  };
  std::vector<PendingTrial> trials_;
};

// Resolve a --jobs argument: 0 means hardware concurrency (min 1).
std::size_t resolve_jobs(std::size_t requested);

}  // namespace ragnar::harness
