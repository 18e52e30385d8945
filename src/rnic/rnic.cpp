#include "rnic/rnic.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/obs.hpp"

namespace ragnar::rnic {

namespace {

// EnforcementAction sample: key packs (controlling device << 16 | tenant),
// aux is the EnforcementEvent code, value carries the cap in Gb/s (0 on
// lift).  Published at the port's scheduler time, so per-shard samples
// merge deterministically under sim::Engine.
void publish_action(sim::SimTime now, NodeId device, NodeId src,
                    std::uint32_t event, double gbps) {
  if (obs::StreamSink* sink = obs::stream()) {
    sink->publish(obs::StreamChannel::kEnforcement, now,
                  (static_cast<std::uint32_t>(device) << 16) |
                      static_cast<std::uint32_t>(src),
                  event, gbps);
  }
}

}  // namespace

NodeId Rnic::Control::node() const { return dev_.node_; }

void Rnic::Control::set_tenant_cap(NodeId src, double gbps) {
  if (gbps <= 0) {
    clear_tenant_cap(src);
    return;
  }
  dev_.pipe_.admission().set_tenant_cap(src, gbps);
  ++caps_applied_;
  publish_action(dev_.sched_.now(), dev_.node_, src,
                 static_cast<std::uint32_t>(obs::EnforcementEvent::kApply), gbps);
}

void Rnic::Control::clear_tenant_cap(NodeId src) {
  dev_.pipe_.admission().clear_tenant_cap(src);
  ++caps_cleared_;
  publish_action(dev_.sched_.now(), dev_.node_, src,
                 static_cast<std::uint32_t>(obs::EnforcementEvent::kLift), 0.0);
}

ControlSnapshot Rnic::Control::snapshot() const {
  ControlSnapshot snap;
  snap.at = dev_.sched_.now();
  // Pipeline accessors are non-const (they hand out mutable stage refs);
  // the reads below are pure.
  auto& pipe = const_cast<Rnic&>(dev_).pipe_;
  const pipeline::RxAdmission& adm = pipe.admission();
  snap.tenant_pacing_gbps = adm.tenant_pacing_gbps();
  snap.tdm = adm.tdm();
  snap.tenant_caps.reserve(adm.tenant_caps().size());
  for (const auto& [src, cap] : adm.tenant_caps()) {
    snap.tenant_caps.emplace_back(src, cap);
  }
  snap.caps_applied = caps_applied_;
  snap.caps_cleared = caps_cleared_;
  return snap;
}

using pipeline::load_u64;
using pipeline::store_u64;

Rnic::Rnic(sim::Scheduler& sched, DeviceProfile profile, NodeId node,
           sim::Xoshiro256 rng)
    : sched_(sched),
      prof_(std::move(profile)),
      node_(node),
      pipe_(sched, pipeline::make_pipeline_config(prof_), counters_, rng) {}

void Rnic::configure(const RuntimeConfig& cfg) {
  pipe_.noise().set_noise(cfg.responder_noise);
  pipe_.translation().unit().set_partitioned(cfg.tenant_isolation);
  pipe_.admission().set_tdm(cfg.tenant_isolation);
  pipe_.admission().configure_pacing(cfg.tenant_pacing_gbps);
  pipe_.egress().ets() = cfg.ets;
  pipe_.egress().reconfigure_pacers();
}

RuntimeConfig Rnic::runtime_config() const {
  RuntimeConfig cfg;
  cfg.responder_noise = pipe_.noise().noise();
  cfg.tenant_isolation = pipe_.translation().unit().partitioned();
  const pipeline::RxAdmission& adm =
      const_cast<Rnic*>(this)->pipe_.admission();
  cfg.tenant_pacing_gbps = adm.tenant_pacing_gbps();
  cfg.ets = const_cast<Rnic*>(this)->pipe_.egress().ets();
  return cfg;
}

void Rnic::post(WireOp op, CompletionSink* sink, std::uint8_t* local_ptr) {
  pipeline::PipelineCtx ctx{op, sched_.now(), sched_.now()};
  pipe_.run_requester(ctx);

  InFlightMsg msg;
  msg.op = op;
  msg.kind = InFlightMsg::Kind::kRequest;
  msg.requester_local = local_ptr;
  msg.sink = sink;
  msg.wire_bytes = ctx.wire_bytes;
  msg.wire_pkts = ctx.wire_pkts;
  fabric_->transmit(msg, ctx.t);
}

void Rnic::deliver(const InFlightMsg& msg) {
  InFlightMsg local = msg;
  pipeline::PipelineCtx ctx{local.op, sched_.now(), sched_.now()};
  ctx.wire_bytes = local.wire_bytes;
  ctx.wire_pkts = local.wire_pkts;
  const bool is_request = local.kind == InFlightMsg::Kind::kRequest;
  pipe_.egress().accept(ctx, is_request);
  if (is_request) {
    handle_request(local, ctx.t);
  } else {
    handle_response(local, ctx.t);
  }
}

void Rnic::handle_request(InFlightMsg msg, sim::SimTime t) {
  const sim::SimTime now = sched_.now();
  pipe_.admission().account(now, msg.op);
  const sim::SimTime admit =
      pipe_.admission().admit(now, msg.op, msg.wire_bytes);
  if (admit > now) {
    auto fn = [this, msg, t, admit] {
      handle_request_admitted(msg, std::max(t, admit));
    };
    static_assert(sim::InlineFn::fits<decltype(fn)>);
    sched_.at(admit, std::move(fn));
    return;
  }
  handle_request_admitted(msg, t);
}

void Rnic::handle_request_admitted(InFlightMsg msg, sim::SimTime t) {
  pipeline::PipelineCtx ctx{msg.op, sched_.now(), t};
  ctx.wire_bytes = msg.wire_bytes;
  ctx.wire_pkts = msg.wire_pkts;
  pipe_.dispatch().process(ctx);

  const WireOp& op = msg.op;

  // Protection check (SEND targets a responder-managed mailbox; no rkey).
  const MrEntry* mr = nullptr;
  WcStatus status = WcStatus::kSuccess;
  if (op.op != Opcode::kSend) {
    status = memory_.check(op.rkey, op.raddr, op.size, op.op, &mr);
  }

  InFlightMsg reply;
  reply.op = op;
  reply.requester_local = msg.requester_local;
  reply.sink = msg.sink;
  reply.status = status;

  if (status != WcStatus::kSuccess) {
    reply.kind = InFlightMsg::Kind::kNak;
    pipe_.response().nak(ctx);
    reply.wire_bytes = ctx.wire_bytes;
    send_reply(reply, ctx.t);
    return;
  }

  switch (op.op) {
    case Opcode::kRead: {
      XlRequest xr;
      xr.mr_id = mr->mr_id;
      xr.offset = op.raddr - mr->base;
      xr.size = op.size;
      xr.is_read = true;
      xr.page_bytes = mr->page_bytes;
      xr.src = op.src_node;
      // The decorated path: translation unit walk + mitigation noise.
      ctx.t = pipe_.noise().translate(ctx.t, xr);
      // DMA-fetch the payload from host memory.
      pipe_.dma().fetch(ctx, op.size);
      reply.kind = InFlightMsg::Kind::kReadResponse;
      reply.responder_data = mr->data + (op.raddr - mr->base);
      // Response generation runs when the DMA delivers, not at arrival.
      defer(ctx.t, [this, reply] { finish_read_response(reply); });
      return;
    }

    case Opcode::kWrite: {
      pipe_.translation().posted_write(ctx);
      // Posted DMA write into host memory.
      pipe_.dma().store(ctx, op.size);
      if (msg.requester_local != nullptr && op.size > 0) {
        std::memcpy(mr->data + (op.raddr - mr->base), msg.requester_local,
                    op.size);
      }
      break;
    }

    case Opcode::kSend: {
      // Two-sided: hand the payload to the verbs layer's recv queue on the
      // destination QP.  No recv WQE posted = receiver-not-ready -> NAK.
      const bool consumed =
          recv_ == nullptr ||
          recv_->on_inbound_send(op.dst_qpn, msg.requester_local, op.size,
                                 ctx.t);
      if (!consumed) {
        // Receiver not ready: no recv WQE posted (or the QP is in error).
        // An RNR NAK rides the control lane back; the requester's verbs
        // layer decides between backoff-retry and RNR_RETRY_EXC_ERR.
        reply.kind = InFlightMsg::Kind::kRnrNak;
        reply.status = WcStatus::kRnrNak;
        pipe_.response().nak(ctx);
        reply.wire_bytes = ctx.wire_bytes;
        send_reply(reply, ctx.t);
        return;
      }
      break;
    }

    case Opcode::kFetchAdd:
    case Opcode::kCmpSwap: {
      XlRequest xr;
      xr.mr_id = mr->mr_id;
      xr.offset = op.raddr - mr->base;
      xr.size = op.size;
      xr.is_read = true;  // atomics walk the read translation path
      xr.page_bytes = mr->page_bytes;
      xr.src = op.src_node;
      // Undecorated walk: the Section VII noise mitigation targets READ
      // responses only (atomics already serialize on the lock).
      ctx.t = pipe_.translation().translate(ctx.t, xr);
      pipe_.translation().lock_atomic(ctx);
      // Read-modify-write round trip on PCIe.
      pipe_.dma().atomic_rmw(ctx);
      std::uint8_t* p = mr->data + (op.raddr - mr->base);
      const std::uint64_t old = load_u64(p);
      if (op.op == Opcode::kFetchAdd) {
        store_u64(p, old + op.atomic_operand);
      } else if (old == op.atomic_compare) {
        store_u64(p, op.atomic_operand);
      }
      reply.atomic_result = old;
      reply.kind = InFlightMsg::Kind::kAtomicResponse;
      defer(ctx.t, [this, reply] { finish_atomic_response(reply); });
      return;
    }
  }

  // WRITE/SEND acknowledgment, generated when the payload has landed.
  reply.kind = InFlightMsg::Kind::kAck;
  defer(ctx.t, [this, reply] { finish_ack(reply); });
}

void Rnic::finish_read_response(InFlightMsg reply) {
  pipeline::PipelineCtx ctx{reply.op, sched_.now(), sched_.now()};
  const std::uint32_t size = reply.op.size;
  pipe_.response().read_response(ctx, size);
  // Egress through arbiter + Tx PU + port.
  pipe_.tx_arbiter().grant_response(ctx, size);
  pipe_.egress().respond(ctx, size);
  reply.wire_bytes = ctx.wire_bytes;
  reply.wire_pkts = ctx.wire_pkts;
  send_reply(reply, ctx.t);
}

void Rnic::finish_atomic_response(InFlightMsg reply) {
  pipeline::PipelineCtx ctx{reply.op, sched_.now(), sched_.now()};
  pipe_.response().atomic_response(ctx);
  reply.wire_bytes = ctx.wire_bytes;
  reply.wire_pkts = ctx.wire_pkts;
  send_reply(reply, ctx.t);
}

void Rnic::finish_ack(InFlightMsg reply) {
  pipeline::PipelineCtx ctx{reply.op, sched_.now(), sched_.now()};
  pipe_.response().ack(ctx, reply.op.src_qpn);
  reply.wire_bytes = ctx.wire_bytes;
  reply.wire_pkts = ctx.wire_pkts;
  send_reply(reply, ctx.t);
}

void Rnic::send_reply(InFlightMsg reply, sim::SimTime t) {
  fabric_->transmit(reply, t);
}

void Rnic::handle_response(InFlightMsg msg, sim::SimTime t) {
  pipeline::PipelineCtx ctx{msg.op, sched_.now(), t};
  pipe_.completion().process_response(ctx, msg);
}

}  // namespace ragnar::rnic
