#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

// The unified metrics surface (see docs/OBSERVABILITY.md).
//
// Every recording API in the repo — the figure-trace TimeSeries/RateSampler,
// the ethtool-facade CounterSampler, the QP reliability stats — is expressed
// on top of one MetricsRegistry of named instruments:
//
//   * Counter    — monotonically increasing count (messages, drops, grants);
//   * Gauge      — last-written value (queue depth, configured rate);
//   * Histogram  — log-linear-bucketed distribution with quantile queries
//                  (per-op latency, ULI samples);
//   * TimeSeries — (sim-time, value) points for figure rendering;
//   * RateSampler— byte/op counts binned into fixed windows, reported as
//                  Gb/s / ops series (the simulated ethtool bps counters).
//
// Instruments are identified by a name plus an optional LabelSet
// (tenant/QP/TC/opcode dimensions), canonically rendered as
// `name{k=v,k=v}` with label keys sorted — so a registry's snapshot order
// is a pure function of what was recorded, never of insertion or thread
// timing.  Registries are trial-local: the sweep harness builds one per
// trial and snapshots it into the CSV/JSON aggregation, keeping --jobs N
// output byte-identical to a serial run.
namespace ragnar::obs {

// A small set of metric labels.  Canonicalized (sorted by key) on
// construction so equal label sets always render identically.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> kvs);

  LabelSet& add(std::string key, std::string value);
  bool empty() const { return kvs_.empty(); }
  const std::vector<std::pair<std::string, std::string>>& items() const {
    return kvs_;
  }
  // `{k=v,k=v}`, empty string for an empty set.
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> kvs_;  // sorted by key
};

// Canonical instrument key: name + rendered labels.
std::string metric_key(std::string_view name, const LabelSet& labels);

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void merge_from(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }
  // Last writer wins; merge order (shard order) decides ties.
  void merge_from(const Gauge& other) { value_ = other.value_; }

 private:
  double value_ = 0;
};

// Log-linear histogram: values >= 1 land in base-2 exponent buckets, each
// split into kSubBuckets linear sub-buckets, so quantile queries resolve to
// within 1/kSubBuckets relative error at O(1) memory — no sample retention,
// deterministic regardless of how many values are recorded.
class Histogram {
 public:
  static constexpr std::uint32_t kSubBuckets = 16;   // <= 6.25% rel. error
  static constexpr std::uint32_t kMaxExponent = 60;  // covers SimTime range

  void record(double v);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0; }
  double min() const { return count_ ? min_ : 0; }
  double max() const { return count_ ? max_ : 0; }
  // Linear-interpolated quantile, q in [0, 1].
  double quantile(double q) const;
  // Bucket-wise accumulate; exact because both sides share the fixed
  // log-linear bucket layout.
  void merge_from(const Histogram& other);

 private:
  static std::uint32_t bucket_of(double v);
  static double bucket_lower(std::uint32_t b);
  static double bucket_upper(std::uint32_t b);

  std::vector<std::uint64_t> buckets_;  // grown lazily to highest bucket
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

struct TracePoint {
  sim::SimTime t;
  double value;
};

// Append-only (time, value) series with window queries.  Lives here (not in
// sim/) since PR 3: figure traces are observability, and the registry can
// own named series next to counters.
class TimeSeries {
 public:
  void add(sim::SimTime t, double v) { points_.push_back({t, v}); }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  std::span<const TracePoint> points() const { return points_; }
  // Values with t in [from, to).
  std::vector<double> values_in(sim::SimTime from, sim::SimTime to) const;
  std::vector<double> values() const;
  void clear() { points_.clear(); }
  // Append then re-sort by time (stable, so same-time points keep
  // this-before-other order — merge in shard order for determinism).
  void merge_from(const TimeSeries& other);

 private:
  std::vector<TracePoint> points_;
};

// Accumulates byte counts into fixed-width bins and reports a bandwidth
// series in Gb/s — the simulated equivalent of watching ethtool bps
// counters.
class RateSampler {
 public:
  explicit RateSampler(sim::SimDur bin_width = sim::kMillisecond)
      : bin_(bin_width) {}

  void record(sim::SimTime t, std::uint64_t bytes);
  sim::SimDur bin_width() const { return bin_; }

  // Gb/s per bin, from bin 0 up to and including the last recorded bin.
  std::vector<double> gbps_series() const;
  // Operations per second per bin.
  std::vector<double> ops_series() const;
  // Bin-wise accumulate.  No-op when the bin widths disagree (the bins are
  // not commensurable; the per-shard engine merge always matches widths
  // because both sides recorded under the same instrument key).
  void merge_from(const RateSampler& other);

 private:
  sim::SimDur bin_;
  std::vector<std::uint64_t> bytes_per_bin_;
  std::vector<std::uint64_t> ops_per_bin_;
};

// One flattened snapshot cell: a column name and its formatted value.
// Counters/gauges flatten to one cell; histograms to count/mean/p50/p90/
// p99/max cells; series and rate samplers to count/last cells (their full
// point data is for figures and traces, not per-trial aggregation).
struct MetricCell {
  std::string column;
  std::string value;
};

struct MetricsSnapshot {
  std::vector<MetricCell> cells;  // sorted by column (registry map order)

  bool empty() const { return cells.empty(); }
  const std::string* find(const std::string& column) const;
};

// The registry.  Instrument accessors create on first use and return a
// stable reference (storage is node-based).  Not thread-safe by design:
// a registry belongs to one trial (= one thread at a time), the same
// ownership discipline as sim::Scheduler.
//
// Each registry carries a process-unique id(), drawn at construction and
// drawn again by clear(): a reference handed out earlier stays valid for
// exactly as long as the id is unchanged.  Cached<T> keys on it, never on
// the registry's address (a trial hub may reuse a freed hub's memory, and
// the engine clears its shard registries after every run).
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  std::uint64_t id() const { return id_; }

  Counter& counter(std::string_view name, const LabelSet& labels = {});
  Gauge& gauge(std::string_view name, const LabelSet& labels = {});
  Histogram& histogram(std::string_view name, const LabelSet& labels = {});
  TimeSeries& series(std::string_view name, const LabelSet& labels = {});
  RateSampler& rate(std::string_view name, sim::SimDur bin_width,
                    const LabelSet& labels = {});

  bool empty() const;
  // Drop every instrument and draw a new id().
  void clear();

  // Fold another registry into this one: counters and histograms
  // accumulate, gauges take the other side's value, series interleave by
  // time, rate bins add.  The windowed sim::Engine gives each shard a
  // private registry and merges them here in shard order after every run,
  // so multi-shard metric values match a single-shard run's.
  void merge_from(const MetricsRegistry& other);

  // Deterministic flattened view for the harness CSV/JSON writers: cells
  // ordered by instrument key (std::map order), values formatted with
  // fixed precision inside the trial.
  MetricsSnapshot snapshot() const;

 private:
  std::uint64_t id_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<TimeSeries>> series_;
  std::map<std::string, std::unique_ptr<RateSampler>> rates_;
};

// A hook site's cached instrument (docs/OBSERVABILITY.md §hook sites): the
// reference one string-path resolve returned, plus the id() of the registry
// it came from.  `resolve` — a call to the registry's counter/gauge/
// histogram accessor — runs only when the handle has not yet seen `reg`'s
// current id, so a hot hook renders no key and does no map lookup per
// message.  The object that owns the hook owns the handle; a handle is
// used by one thread at a time, like the registry.
template <typename T>
class Cached {
 public:
  template <typename Resolve>
  T& in(MetricsRegistry& reg, Resolve&& resolve) {
    if (reg_id_ != reg.id()) {
      ptr_ = &resolve(reg);
      reg_id_ = reg.id();
    }
    return *ptr_;
  }

 private:
  std::uint64_t reg_id_ = 0;  // registry ids start at 1
  T* ptr_ = nullptr;
};

}  // namespace ragnar::obs
