#pragma once

#include "obs/obs.hpp"
#include "rnic/pipeline/context.hpp"
#include "sim/time.hpp"

namespace ragnar::rnic::pipeline {

// Stable numeric identity per stage type: the streaming-sink key for
// kStageDwell samples (a string name would put a hash on the hot path).
// Order is the pipeline traversal order; values are part of the stream
// schema consumed by src/defense/online.
enum class StageId : std::uint8_t {
  kDoorbellFetch = 0,
  kTxArbiter,
  kWireEgress,
  kRxAdmission,
  kRxDispatch,
  kTranslation,
  kPayloadDma,
  kResponseGen,
  kCompletion,
};

// Uniform stage interface.  A stage advances ctx.t through its resources;
// the requester-path stages are driven through the virtual process() chain,
// the responder-path stages additionally expose typed entry points for the
// branches (admission deferral, per-opcode paths) the orchestrator owns.
//
// Timing contract: a stage may reserve shared servers, draw jitter from the
// device JitterRng and advance ctx.t — nothing else.  Observability goes
// through note(), which follows the PR 3 discipline: one ambient-hub read +
// branch when no hub is installed, so disabled-obs runs stay byte-identical.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual StageId id() const = 0;

  // Default no-op: only the uniform requester-path stages override it.
  virtual void process(PipelineCtx& ctx) { (void)ctx; }

 protected:
  // Per-stage span + dwell metric for the [entered, ctx.t) traversal.  The
  // hub check inlines to one thread-local load + branch so that stages can
  // note every message without taxing obs-off runs.
  void note(const PipelineCtx& ctx, sim::SimTime entered) const {
    if (obs::current() != nullptr) note_slow(ctx, entered);
  }

 private:
  void note_slow(const PipelineCtx& ctx, sim::SimTime entered) const;

  // rnic.stage.msgs / rnic.stage.dwell_ns{stage=name()}, resolved once per
  // registry (a stage runs on its device's shard only).
  mutable obs::Cached<obs::Counter> msgs_;
  mutable obs::Cached<obs::Histogram> dwell_;
};

}  // namespace ragnar::rnic::pipeline
