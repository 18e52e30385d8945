#include "rnic/pipeline/stage.hpp"

#include <string>

#include "obs/obs.hpp"

namespace ragnar::rnic::pipeline {

void Stage::note_slow(const PipelineCtx& ctx, sim::SimTime entered) const {
  const sim::SimDur dwell = ctx.t > entered ? ctx.t - entered : 0;
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    msgs_.in(*reg, [this](obs::MetricsRegistry& r) -> obs::Counter& {
      return r.counter("rnic.stage.msgs", {{"stage", name()}});
    }).add();
    dwell_.in(*reg, [this](obs::MetricsRegistry& r) -> obs::Histogram& {
      return r.histogram("rnic.stage.dwell_ns", {{"stage", name()}});
    }).record(sim::to_ns(dwell));
  }
  if (obs::StreamSink* sink = obs::stream()) {
    sink->publish(obs::StreamChannel::kStageDwell, ctx.t,
                  static_cast<std::uint32_t>(id()), ctx.op.src_node,
                  sim::to_ns(dwell));
  }
  if (obs::Tracer* tr = obs::tracer()) {
    tr->complete("rnic.stage", name(), entered, ctx.t,
                 {{"op", opcode_name(ctx.op.op)},
                  {"tc", std::to_string(ctx.op.tc)}});
  }
}

}  // namespace ragnar::rnic::pipeline
