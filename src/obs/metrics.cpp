#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace ragnar::obs {

namespace {

// Fixed-precision formatting so snapshot bytes cannot depend on locale or
// accumulated float state (same contract as harness::Record::set).
std::string format_double(double v, int precision = 6) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return std::string(buf);
}

std::string format_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return std::string(buf);
}

// Registry ids: process-wide, never reused (0 means "never resolved").
std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

template <typename Map, typename... Args>
auto& get_or_create(Map& m, std::string key, Args&&... args) {
  auto it = m.find(key);
  if (it == m.end()) {
    it = m.emplace(std::move(key),
                   std::make_unique<typename Map::mapped_type::element_type>(
                       std::forward<Args>(args)...))
             .first;
  }
  return *it->second;
}

}  // namespace

LabelSet::LabelSet(
    std::initializer_list<std::pair<std::string, std::string>> kvs) {
  for (const auto& kv : kvs) kvs_.push_back(kv);
  std::sort(kvs_.begin(), kvs_.end());
}

LabelSet& LabelSet::add(std::string key, std::string value) {
  kvs_.emplace_back(std::move(key), std::move(value));
  std::sort(kvs_.begin(), kvs_.end());
  return *this;
}

std::string LabelSet::render() const {
  if (kvs_.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < kvs_.size(); ++i) {
    if (i) out += ',';
    out += kvs_[i].first;
    out += '=';
    out += kvs_[i].second;
  }
  out += '}';
  return out;
}

std::string metric_key(std::string_view name, const LabelSet& labels) {
  std::string key(name);
  key += labels.render();
  return key;
}

void Histogram::record(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  const std::uint32_t b = bucket_of(v);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  buckets_[b] += 1;
}

std::uint32_t Histogram::bucket_of(double v) {
  if (!(v >= 1.0)) return 0;  // sub-unit, negative, and NaN all land low
  int exp = 0;
  const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5,1)
  std::uint32_t e = static_cast<std::uint32_t>(exp - 1);  // v in [2^e, 2^{e+1})
  if (e > kMaxExponent) e = kMaxExponent;
  // Linear position inside the octave: frac in [0.5, 1) -> [0, kSubBuckets).
  auto sub = static_cast<std::uint32_t>((frac - 0.5) * 2.0 * kSubBuckets);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + e * kSubBuckets + sub;
}

double Histogram::bucket_lower(std::uint32_t b) {
  if (b == 0) return 0.0;
  const std::uint32_t e = (b - 1) / kSubBuckets;
  const std::uint32_t sub = (b - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                    static_cast<int>(e));
}

double Histogram::bucket_upper(std::uint32_t b) {
  if (b == 0) return 1.0;
  return bucket_lower(b + 1);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [1, count]; walk the cumulative bucket counts.
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;
  std::uint64_t seen = 0;
  for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const auto lo_rank = static_cast<double>(seen) + 1.0;
    seen += buckets_[b];
    if (rank <= static_cast<double>(seen)) {
      // Interpolate linearly inside the bucket, clamped to observed extrema.
      const double frac = buckets_[b] == 1
                              ? 0.0
                              : (rank - lo_rank) /
                                    static_cast<double>(buckets_[b] - 1);
      const double lo = std::max(bucket_lower(b), min_);
      const double hi = std::min(bucket_upper(b), max_);
      return lo + frac * std::max(0.0, hi - lo);
    }
  }
  return max_;
}

void Histogram::merge_from(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t b = 0; b < other.buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
}

void TimeSeries::merge_from(const TimeSeries& other) {
  if (other.points_.empty()) return;
  points_.insert(points_.end(), other.points_.begin(), other.points_.end());
  std::stable_sort(
      points_.begin(), points_.end(),
      [](const TracePoint& a, const TracePoint& b) { return a.t < b.t; });
}

void RateSampler::merge_from(const RateSampler& other) {
  if (other.bin_ != bin_) return;
  if (other.bytes_per_bin_.size() > bytes_per_bin_.size()) {
    bytes_per_bin_.resize(other.bytes_per_bin_.size(), 0);
    ops_per_bin_.resize(other.ops_per_bin_.size(), 0);
  }
  for (std::size_t b = 0; b < other.bytes_per_bin_.size(); ++b) {
    bytes_per_bin_[b] += other.bytes_per_bin_[b];
    ops_per_bin_[b] += other.ops_per_bin_[b];
  }
}

std::vector<double> TimeSeries::values_in(sim::SimTime from,
                                          sim::SimTime to) const {
  std::vector<double> out;
  for (const auto& p : points_) {
    if (p.t >= from && p.t < to) out.push_back(p.value);
  }
  return out;
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.value);
  return out;
}

void RateSampler::record(sim::SimTime t, std::uint64_t bytes) {
  const std::size_t bin = static_cast<std::size_t>(t / bin_);
  if (bin >= bytes_per_bin_.size()) {
    bytes_per_bin_.resize(bin + 1, 0);
    ops_per_bin_.resize(bin + 1, 0);
  }
  bytes_per_bin_[bin] += bytes;
  ops_per_bin_[bin] += 1;
}

std::vector<double> RateSampler::gbps_series() const {
  std::vector<double> out;
  out.reserve(bytes_per_bin_.size());
  const double secs = sim::to_sec(bin_);
  for (auto b : bytes_per_bin_) {
    out.push_back(static_cast<double>(b) * 8.0 / 1e9 / secs);
  }
  return out;
}

std::vector<double> RateSampler::ops_series() const {
  std::vector<double> out;
  out.reserve(ops_per_bin_.size());
  const double secs = sim::to_sec(bin_);
  for (auto c : ops_per_bin_) {
    out.push_back(static_cast<double>(c) / secs);
  }
  return out;
}

const std::string* MetricsSnapshot::find(const std::string& column) const {
  for (const auto& c : cells) {
    if (c.column == column) return &c.value;
  }
  return nullptr;
}

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {}

Counter& MetricsRegistry::counter(std::string_view name,
                                  const LabelSet& labels) {
  return get_or_create(counters_, metric_key(name, labels));
}

Gauge& MetricsRegistry::gauge(std::string_view name, const LabelSet& labels) {
  return get_or_create(gauges_, metric_key(name, labels));
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const LabelSet& labels) {
  return get_or_create(histograms_, metric_key(name, labels));
}

TimeSeries& MetricsRegistry::series(std::string_view name,
                                    const LabelSet& labels) {
  return get_or_create(series_, metric_key(name, labels));
}

RateSampler& MetricsRegistry::rate(std::string_view name, sim::SimDur bin_width,
                                   const LabelSet& labels) {
  return get_or_create(rates_, metric_key(name, labels), bin_width);
}

bool MetricsRegistry::empty() const {
  return counters_.empty() && gauges_.empty() && histograms_.empty() &&
         series_.empty() && rates_.empty();
}

void MetricsRegistry::clear() {
  id_ = next_registry_id();
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  series_.clear();
  rates_.clear();
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [key, c] : other.counters_) {
    get_or_create(counters_, key).merge_from(*c);
  }
  for (const auto& [key, g] : other.gauges_) {
    get_or_create(gauges_, key).merge_from(*g);
  }
  for (const auto& [key, h] : other.histograms_) {
    get_or_create(histograms_, key).merge_from(*h);
  }
  for (const auto& [key, s] : other.series_) {
    get_or_create(series_, key).merge_from(*s);
  }
  for (const auto& [key, r] : other.rates_) {
    get_or_create(rates_, key, r->bin_width()).merge_from(*r);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [key, c] : counters_) {
    snap.cells.push_back({key, format_u64(c->value())});
  }
  for (const auto& [key, g] : gauges_) {
    snap.cells.push_back({key, format_double(g->value())});
  }
  for (const auto& [key, h] : histograms_) {
    snap.cells.push_back({key + ".count", format_u64(h->count())});
    snap.cells.push_back({key + ".mean", format_double(h->mean(), 3)});
    snap.cells.push_back({key + ".p50", format_double(h->quantile(0.50), 3)});
    snap.cells.push_back({key + ".p90", format_double(h->quantile(0.90), 3)});
    snap.cells.push_back({key + ".p99", format_double(h->quantile(0.99), 3)});
    snap.cells.push_back({key + ".max", format_double(h->max(), 3)});
  }
  for (const auto& [key, s] : series_) {
    snap.cells.push_back({key + ".count", format_u64(s->size())});
    snap.cells.push_back(
        {key + ".last",
         format_double(s->empty() ? 0.0 : s->points().back().value, 3)});
  }
  for (const auto& [key, r] : rates_) {
    const auto gbps = r->gbps_series();
    double peak = 0;
    for (double g : gbps) peak = std::max(peak, g);
    snap.cells.push_back({key + ".bins", format_u64(gbps.size())});
    snap.cells.push_back({key + ".peak_gbps", format_double(peak, 3)});
  }
  return snap;
}

}  // namespace ragnar::obs
