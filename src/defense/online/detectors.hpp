#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "defense/verdict.hpp"
#include "obs/sketch.hpp"
#include "obs/stream.hpp"
#include "rnic/op.hpp"
#include "sim/flat_map.hpp"
#include "sim/time.hpp"

// Incremental counter detectors over the streaming obs backbone
// (docs/DEFENSE.md).  Each detector consumes StreamSamples as the engine
// merges them out of the per-shard sinks, holds *hard-capped* per-tenant
// state (fixed-bin rate rings, bounded distinct sets, capped GK sketches),
// and answers score queries at any point of the run.  Nothing here grows
// with message count: a million-message run ends with the same footprint as
// a thousand-message run, plus saturated overflow counters.
//
// Grain taxonomy (HARMONIC, Lou et al. NSDI'24 — see defense/harmonic.hpp
// for the offline poll-based variant):
//   * Grain-II  — per-(opcode, size-class) stream message rate;
//   * Grain-III — distinct rkeys / QPs a tenant touches per window;
//   * Grain-IV  — *intra-MR periodicity*: the byte-rate modulation a
//     Bankrupt/ULI-style covert sender cannot avoid imprinting.  HARMONIC
//     has no Grain-IV counter — this detector is the online pipeline's
//     addition, scored as the peak normalized autocorrelation over the
//     tenant's windowed byte-rate and message-count series (the larger of
//     the two: amplitude modulation randomizes bytes but not cadence).
namespace ragnar::defense::online {

struct OnlineConfig : GrainCaps {
  // Rate-estimator geometry: per-tenant rings of `bins` x `bin_width`.
  sim::SimDur bin_width = sim::us(20);
  std::size_t bins = 256;
  // Hard caps.  Tenants / streams / resources past the cap are counted in
  // the overflow tallies, never allocated.
  std::size_t max_tenants = 64;
  std::size_t max_streams_per_tenant = 32;
  std::size_t max_resources_per_tenant = 256;
  double sketch_eps = 0.02;
  std::size_t sketch_max_tuples = 512;
  // Grain-IV alarm threshold (the defense_online scenario sweeps it); the
  // Grain-II/III caps come from GrainCaps.
  double grain4_threshold = 0.5;
  // Modulation-depth gate for Grain-IV: the autocorrelation score is scaled
  // by min(1, cv / grain4_min_cv) where cv is the series' coefficient of
  // variation.  A steady closed loop aliases against the bin grid into a
  // highly autocorrelated but *shallow* ripple (3-vs-4 messages per bin);
  // an on-off covert modulator swings the full amplitude.  Depth is what
  // separates them.
  double grain4_min_cv = 0.5;
};

// Per-tenant verdict snapshot.
struct TenantScore {
  rnic::NodeId src = 0;
  std::uint64_t msgs = 0;
  double peak_stream_mpps = 0;   // hottest Grain-II stream
  std::size_t distinct_rkeys = 0;  // Grain-III, peak over windows
  std::size_t distinct_qps = 0;
  double periodicity = 0;        // Grain-IV score in [0, 1]
  double p99_msg_bytes = 0;      // from the capped GK sketch
  bool grain2 = false;
  bool grain3 = false;
  bool grain4 = false;
  bool flagged() const { return grain2 || grain3 || grain4; }

  // Reduce this score row to the unified seam currency (defense/verdict.hpp)
  // — the same shape HarmonicMonitor emits, so one Enforcer serves both.
  Verdict to_verdict(sim::SimTime at) const {
    Verdict v;
    v.src = src;
    v.at = at;
    v.source = VerdictSource::kOnline;
    v.grain2 = grain2;
    v.grain3 = grain3;
    v.grain4 = grain4;
    v.score = grain4   ? periodicity
              : grain2 ? peak_stream_mpps
                       : static_cast<double>(distinct_rkeys);
    return v;
  }
};

// One tenant's bounded detector state.
class TenantState {
 public:
  explicit TenantState(const OnlineConfig& cfg);

  void on_msg(const obs::StreamSample& s, const OnlineConfig& cfg);
  void on_resource(const obs::StreamSample& s, const OnlineConfig& cfg);

  TenantScore score(rnic::NodeId src, const OnlineConfig& cfg) const;
  std::size_t footprint_bytes() const;

  std::uint64_t stream_overflow() const { return stream_overflow_; }
  std::uint64_t resource_overflow() const { return resource_overflow_; }

 private:
  // Grain-II: message-rate ring per (opcode << 4 | size-class) stream key.
  sim::FlatMap<std::uint32_t, obs::WindowedRate> streams_;
  std::uint64_t stream_overflow_ = 0;
  // Grain-III: distinct rkeys/QPs per window epoch; the sets reset when the
  // epoch rolls, the peaks persist.
  std::uint64_t epoch_ = ~std::uint64_t{0};
  sim::FlatMap<std::uint32_t, char> rkeys_;
  sim::FlatMap<std::uint32_t, char> qpns_;
  std::size_t peak_rkeys_ = 0;
  std::size_t peak_qpns_ = 0;
  std::uint64_t resource_overflow_ = 0;
  // Grain-IV: windowed byte-rate and message-count signals + capped size
  // sketch.  Two signals because a duty-cycled modulator hides in either:
  // amplitude modulation (bit-sized bursts) randomizes the byte series but
  // the burst *cadence* stays in the count series, while a constant-count
  // sender varying sizes shows up in bytes.
  obs::WindowedRate byte_rate_;
  obs::WindowedRate msg_rate_;
  obs::GkSketch size_sketch_;
  std::uint64_t msgs_ = 0;
};

// Peak normalized autocorrelation of `series` over lags [2, series/4]:
// 1.0 for a pure periodic signal, ~0 for flat or white traffic.  Exposed
// for tests.
double periodicity_score(const std::vector<double>& series);

// The Grain-IV score: periodicity_score scaled by modulation depth —
// min(1, cv / min_cv), cv the series' coefficient of variation.  High only
// when the signal is both periodic *and* deeply modulated, which is what a
// duty-cycled covert sender cannot avoid and steady benign traffic (even
// when its deterministic cadence aliases against the bin grid) never shows.
double modulation_score(const std::vector<double>& series, double min_cv);

}  // namespace ragnar::defense::online
