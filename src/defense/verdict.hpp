#pragma once

#include <cstddef>
#include <cstdint>

#include "rnic/op.hpp"
#include "sim/time.hpp"

// The unified detector verdict (docs/DEFENSE.md §closed loop).
//
// Before the closed-loop refactor the two detector generations spoke
// different dialects: the offline HarmonicMonitor produced TenantVerdict
// rows, the online pipeline produced TenantScore rows, and nothing
// downstream could consume both.  A Verdict is the common currency on the
// enforcement seam: either detector reduces its per-tenant state to one of
// these, and the defense::Enforcer consumes them without knowing (or
// caring) which generation flagged the tenant.  The per-detector stats
// structs stay — they carry the full evidence a scenario prints — but the
// *decision* crosses the seam in exactly one shape.
namespace ragnar::defense {

enum class VerdictSource : std::uint8_t {
  kHarmonic = 0,  // offline poll-based monitor (defense/harmonic.hpp)
  kOnline = 1,    // streaming pipeline (defense/online/pipeline.hpp)
};

struct Verdict {
  rnic::NodeId src = 0;
  sim::SimTime at = 0;  // when the detector closed the window behind it
  VerdictSource source = VerdictSource::kHarmonic;
  // Which grain policies fired.  Grain-I and Grain-IV are each native to
  // one detector (bandwidth cap / periodicity); Grain-II/III exist in both.
  bool grain1 = false;
  bool grain2 = false;
  bool grain3 = false;
  bool grain4 = false;
  // The dominant detector score behind the flag: Gb/s for Grain-I, Mpps
  // for Grain-II, a distinct-resource count for Grain-III, the periodicity
  // score in [0, 1] for Grain-IV.  Evidence for logs, not policy input.
  double score = 0;

  bool flagged() const { return grain1 || grain2 || grain3 || grain4; }
};

// The Grain-II/III alarm caps, shared by both detector generations
// (HarmonicPolicy and online::OnlineConfig inherit them).
struct GrainCaps {
  double grain2_stream_mpps_cap = 6.0;  // per (opcode, size-class) stream
  double grain2_atomic_mpps_cap = 1.0;  // atomics are priced separately
  std::size_t grain3_rkey_cap = 16;
  std::size_t grain3_qp_cap = 128;

  // Grain-III: resource churn — too many distinct rkeys or QPs per window.
  bool grain3(std::size_t rkeys, std::size_t qps) const {
    return rkeys > grain3_rkey_cap || qps > grain3_qp_cap;
  }
};

}  // namespace ragnar::defense
