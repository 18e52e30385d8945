#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "rnic/message.hpp"
#include "sim/time.hpp"

// The runtime control plane of one device (docs/DEFENSE.md §closed loop).
//
// Rnic::configure() applies the device-wide RuntimeConfig knobs atomically
// — the right shape for construction-time tuning, and the wrong one for a
// defense that must flip a single tenant's throttle in the middle of a run
// without re-stating every other knob.  A ControlPort is the per-tenant
// seam, and the only way to write a tenant cap: typed scheduled-time
// operations against the live RxAdmission stage, each taking effect for
// the next message it admits, each leaving an EnforcementAction sample on
// the streaming sink so closed-loop runs stay observable under the sharded
// engine's sink merge.
//
// The port is deliberately narrow: an Enforcer (defense/enforcer.hpp) — or
// a test — drives it; it never reads traffic.  snapshot() is the read side,
// and is what Rnic's cap accessors go through so CLI/JSON output always
// reflects the *live* admission state rather than construction-time config.
namespace ragnar::rnic {

// Read-side view of the control plane at one instant of simulated time.
struct ControlSnapshot {
  sim::SimTime at = 0;
  double tenant_pacing_gbps = 0;  // global Grain-I pacing floor
  bool tdm = false;               // partitioned-mode admission slots
  // Live per-tenant throttles, ascending NodeId (FlatMap order).
  std::vector<std::pair<NodeId, double>> tenant_caps;
  // Lifetime control-op counters for this port.
  std::uint64_t caps_applied = 0;
  std::uint64_t caps_cleared = 0;

  double cap_for(NodeId src) const {
    for (const auto& [node, cap] : tenant_caps) {
      if (node == src) return cap;
    }
    return 0.0;
  }
};

class ControlPort {
 public:
  virtual ~ControlPort() = default;

  // The device this port controls (Enforcers key EnforcementAction samples
  // and multi-port bookkeeping by it).
  virtual NodeId node() const = 0;

  // Install / replace the per-tenant ingress throttle.  Takes effect at the
  // current simulated time: the next admitted message of `src` is paced at
  // `gbps`.  A cap <= 0 is equivalent to clear_tenant_cap().
  virtual void set_tenant_cap(NodeId src, double gbps) = 0;
  // Remove the per-tenant throttle; `src` falls back to the global pacing
  // floor (or unpaced admission when none is configured).
  virtual void clear_tenant_cap(NodeId src) = 0;

  // Live control-plane state at the current simulated time.
  virtual ControlSnapshot snapshot() const = 0;
};

}  // namespace ragnar::rnic
