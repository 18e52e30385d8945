#include "rnic/pipeline/stages.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace ragnar::rnic::pipeline {

// ---------------------------------------------------------------- doorbell

void DoorbellFetch::process(PipelineCtx& ctx) {
  const sim::SimTime entered = ctx.now;
  ctx.t = ctx.now + cfg_.mmio_doorbell_lat;

  const bool payload_out = is_payload_out(ctx.op.op);
  ctx.op.inlined = payload_out && ctx.op.size <= cfg_.inline_max;

  // WQE fetch (and payload gather for non-inline outbound payloads).
  std::uint64_t fetch_bytes = cfg_.wqe_bytes;
  if (payload_out && !ctx.op.inlined) fetch_bytes += ctx.op.size;
  ctx.t = pcie_.read(ctx.t, fetch_bytes);
  note(ctx, entered);
}

// -------------------------------------------------------------- tx arbiter

void TxArbiter::process(PipelineCtx& ctx) {
  const sim::SimTime entered = ctx.t;
  // Bulk (DMA-gather) writes receive a larger quantum: fewer scheduling
  // cycles per byte.
  double cycle_scale = 1.0;
  if (is_payload_out(ctx.op.op) && ctx.op.size >= cfg_.write_bulk_cutoff)
    cycle_scale = cfg_.bulk_write_cycle_factor;
  ctx.t = arb_.reserve(
      ctx.t, rng_.jitter(static_cast<sim::SimDur>(
                 static_cast<double>(cfg_.tx_arb_cycle) * cycle_scale)));
  if (obs::Tracer* tr = obs::tracer()) {
    tr->instant("rnic", "tx_arb.grant", ctx.t,
                {{"tc", std::to_string(ctx.op.tc)},
                 {"qp", std::to_string(ctx.op.src_qpn)}});
  }

  // Tx processing unit.
  ctx.t = pu_.reserve(
      ctx.t, rng_.jitter(pu_time(cfg_.pu_base, cfg_.pu_per_kib,
                                 is_payload_out(ctx.op.op) ? ctx.op.size : 0)));
  note(ctx, entered);
}

void TxArbiter::grant_response(PipelineCtx& ctx, std::uint32_t size) {
  const sim::SimTime entered = ctx.t;
  ctx.t = arb_.reserve(ctx.t, rng_.jitter(cfg_.tx_arb_cycle));
  ctx.t = pu_.reserve(
      ctx.t, rng_.jitter(pu_time(cfg_.pu_base, cfg_.pu_per_kib, size)));
  note(ctx, entered);
}

// ------------------------------------------------------------- wire egress

WireEgress::WireEgress(const WireEgressConfig& cfg, PortCounters& counters)
    : cfg_(cfg),
      counters_(counters),
      tc_pacer_(kNumTrafficClasses),
      tc_last_active_(kNumTrafficClasses, 0) {
  egress_link_.configure(cfg_.link_gbps, 0);
  ingress_link_.configure(cfg_.link_gbps, 0);
  reconfigure_pacers();
}

void WireEgress::reconfigure_pacers() {
  for (std::size_t t = 0; t < kNumTrafficClasses; ++t) {
    const double share = std::max(ets_.weight_pct[t], 1.0) / 100.0;
    tc_pacer_[t].configure(cfg_.link_gbps * share, 0);
  }
}

sim::SimTime WireEgress::reserve(sim::SimTime now, sim::SimTime t,
                                 TrafficClass tc, std::uint64_t bytes) {
  if (tx_pause_until_ > t) {
    // PFC pause from the downstream switch: hold payload serialization
    // until the pause horizon.  tx_pause_until_ stays 0 on point-to-point
    // fabrics, so this branch never fires there.
    pause_deferred_total_ += tx_pause_until_ - t;
    t = tx_pause_until_;
  }
  const sim::SimTime serialized = egress_link_.reserve(t, bytes);
  egress_util_.add(now, egress_link_.service_time(bytes));

  // ETS pacing only binds while other traffic classes are recently active.
  constexpr sim::SimDur kEtsWindow = sim::us(100);
  const std::size_t cls = tc % kNumTrafficClasses;
  tc_last_active_[cls] = t;
  bool others_active = false;
  for (std::size_t i = 0; i < kNumTrafficClasses; ++i) {
    if (i != cls && tc_last_active_[i] + kEtsWindow > t &&
        tc_last_active_[i] != 0) {
      others_active = true;
      break;
    }
  }
  if (!others_active) return serialized;
  const double share = std::max(ets_.weight_pct[cls], 1.0) / 100.0;
  tc_pacer_[cls].configure(cfg_.link_gbps * share, 0);
  const sim::SimTime paced = tc_pacer_[cls].reserve(t, bytes);
  return std::max(serialized, paced);
}

void WireEgress::process(PipelineCtx& ctx) {
  const sim::SimTime entered = ctx.t;
  // Wire image of the request.
  std::uint64_t payload = 0;
  switch (ctx.op.op) {
    case Opcode::kWrite:
    case Opcode::kSend:
      payload = ctx.op.size;
      break;
    case Opcode::kRead:
      payload = cfg_.read_req_bytes;
      break;
    case Opcode::kFetchAdd:
    case Opcode::kCmpSwap:
      payload = cfg_.read_req_bytes + 16;  // RETH + operands
      break;
  }
  ctx.wire_pkts = packet_count(payload, cfg_.mtu);
  ctx.wire_bytes = payload + static_cast<std::uint64_t>(ctx.wire_pkts) *
                                 cfg_.pkt_header_bytes;
  ctx.t = reserve(ctx.now, ctx.t, ctx.op.tc, ctx.wire_bytes);
  counters_.count_tx(ctx.op.tc, ctx.op.op, ctx.wire_bytes, ctx.wire_pkts);
  count_traffic(/*rx=*/false, ctx.op.tc, ctx.op.op, ctx.wire_bytes);
  if (obs::Tracer* tr = obs::tracer()) {
    tr->complete("rnic", opcode_name(ctx.op.op), ctx.now, ctx.t,
                 {{"tc", std::to_string(ctx.op.tc)},
                  {"bytes", std::to_string(ctx.wire_bytes)},
                  {"dir", "tx"}});
  }
  note(ctx, entered);
}

void WireEgress::respond(PipelineCtx& ctx, std::uint32_t size) {
  const sim::SimTime entered = ctx.t;
  ctx.wire_bytes = size + static_cast<std::uint64_t>(ctx.wire_pkts) *
                              cfg_.pkt_header_bytes;
  ctx.t = reserve(ctx.now, ctx.t, ctx.op.tc, ctx.wire_bytes);
  counters_.count_tx_raw(ctx.op.tc, ctx.wire_bytes, ctx.wire_pkts);
  note(ctx, entered);
}

void WireEgress::control(PipelineCtx& ctx, std::uint64_t bytes) {
  ctx.t += egress_link_.service_time(bytes);
  counters_.count_tx_raw(ctx.op.tc, bytes, 1);
  ctx.wire_bytes = bytes;
  ctx.wire_pkts = 1;
}

void WireEgress::accept(PipelineCtx& ctx, bool is_request) {
  const sim::SimTime entered = ctx.now;
  ctx.t = ingress_link_.reserve(ctx.now, ctx.wire_bytes);
  if (is_request) {
    counters_.count_rx(ctx.op.tc, ctx.op.op, ctx.wire_bytes, ctx.wire_pkts);
    count_traffic(/*rx=*/true, ctx.op.tc, ctx.op.op, ctx.wire_bytes);
  } else {
    counters_.count_rx_raw(ctx.op.tc, ctx.wire_bytes, ctx.wire_pkts);
  }
  note(ctx, entered);
}

void WireEgress::count_traffic_slow(bool rx, TrafficClass tc, Opcode op,
                                    std::uint64_t bytes) {
  obs::MetricsRegistry& reg = *obs::metrics();
  const auto resolve = [tc, op](const char* name) {
    return [name, tc, op](obs::MetricsRegistry& r) -> obs::Counter& {
      return r.counter(name,
                       {{"tc", std::to_string(tc)}, {"op", opcode_name(op)}});
    };
  };
  const char* msgs = rx ? "rnic.rx" : "rnic.tx";
  const char* bytes_name = rx ? "rnic.rx_bytes" : "rnic.tx_bytes";
  if (tc >= kNumTrafficClasses) {  // outside the table: resolve every time
    resolve(msgs)(reg).add();
    resolve(bytes_name)(reg).add(bytes);
    return;
  }
  if (traffic_ == nullptr) traffic_ = std::make_unique<TrafficTable>();
  TrafficMetrics& m =
      (*traffic_)[((rx ? kNumTrafficClasses : 0) + tc) * kNumOpcodes +
                  static_cast<std::size_t>(op)];
  m.msgs.in(reg, resolve(msgs)).add();
  m.bytes.in(reg, resolve(bytes_name)).add(bytes);
}

// ------------------------------------------------------------ rx admission

void RxAdmission::account(sim::SimTime now, const WireOp& op) {
  SrcWindowStats& s = src_stats_[op.src_node];
  const auto oi = static_cast<std::size_t>(op.op);
  s.msgs[oi] += 1;
  s.bytes[oi] += op.size;
  std::uint32_t size_class;
  if (op.size <= cfg_.fastpath_max_bytes) {
    s.tiny_msgs += 1;
    size_class = 0;
  } else if (op.size <= cfg_.mtu) {
    s.medium_msgs += 1;
    size_class = 1;
  } else {
    s.large_msgs += 1;
    size_class = 2;
  }
  if (op.op != Opcode::kSend) s.rkeys_touched.insert(op.rkey);
  s.qpns_seen.insert(op.src_qpn);
  if (obs::StreamSink* sink = obs::stream()) {
    // Grain-II observable: one sample per admitted message, keyed
    // (src, opcode, size class) — the per-stream rate signal.
    sink->publish(obs::StreamChannel::kTenantMsg, now,
                  (static_cast<std::uint32_t>(op.src_node) << 8) |
                      (static_cast<std::uint32_t>(op.op) << 4) | size_class,
                  op.src_qpn, static_cast<double>(op.size));
    // Grain-III observable: which rkey/QP the tenant touched.
    if (op.op != Opcode::kSend) {
      sink->publish(obs::StreamChannel::kTenantResource, now, op.src_node,
                    op.rkey, static_cast<double>(op.src_qpn));
    }
  }
}

sim::SimTime RxAdmission::admit(sim::SimTime now, const WireOp& op,
                                std::uint64_t wire_bytes) {
  sim::SimTime admit = now;
  const double* cap_p = tenant_caps_.find(op.src_node);
  const double cap =
      cap_p != nullptr && *cap_p > 0 ? *cap_p : tenant_pacing_gbps_;
  if (cap > 0) {
    // Grain-I per-tenant ingress pacing (native flow control or a targeted
    // HARMONIC enforcement throttle).
    auto [pacer, fresh] = tenant_pacer_.try_emplace(op.src_node);
    if (fresh || pacer->gbps() != cap) pacer->configure(cap, 0);
    admit = std::max(admit, pacer->reserve(now, wire_bytes));
  }
  if (tdm_) {
    // Section VII partitioning: fixed TDM admission slots per tenant make
    // each tenant's service rate independent of every other tenant's
    // behaviour (and of address-dependent service times), killing
    // rate-coupled leakage at a steep small-message cost.
    admit = std::max(admit, tdm_admission_[op.src_node].reserve(
                                now, cfg_.xl_tdm_slot));
  }
  if (admit > now) {
    if (obs::Tracer* tr = obs::tracer()) {
      tr->complete("rnic", "admission.defer", now, admit,
                   {{"src", std::to_string(op.src_node)},
                    {"tc", std::to_string(op.tc)}});
    }
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      reg->counter("rnic.admission_deferred",
                   obs::LabelSet{{"src", std::to_string(op.src_node)}})
          .add();
    }
  }
  return admit;
}

sim::FlatMap<NodeId, SrcWindowStats> RxAdmission::take_stats() {
  sim::FlatMap<NodeId, SrcWindowStats> out = std::move(src_stats_);
  src_stats_.clear();
  return out;
}

// ------------------------------------------------------------- rx dispatch

RxDispatch::RxDispatch(const RxDispatchConfig& cfg, WireEgress& egress,
                       JitterRng& rng)
    : cfg_(cfg),
      egress_(egress),
      rng_(rng),
      lanes_(std::max<std::uint32_t>(cfg.rx_dispatch_lanes, 1)),
      lane_last_active_(lanes_.size(), 0),
      rx_pu_(cfg.rx_pu_count) {}

void RxDispatch::process(PipelineCtx& ctx) {
  const sim::SimTime entered = ctx.t;
  const WireOp& op = ctx.op;

  // Payload size as seen by the ingress pipeline.
  std::uint64_t inbound_payload = 0;
  if (op.op == Opcode::kWrite || op.op == Opcode::kSend)
    inbound_payload = op.size;
  else
    inbound_payload = cfg_.read_req_bytes;
  const bool fast = inbound_payload <= cfg_.fastpath_max_bytes;

  // Dispatcher.  KF3: egress pressure slows ingress dispatch.  KF2: the
  // fast path is source-hash laned; dual-lane activity boosts the clock.
  const double pressure =
      1.0 + cfg_.tx_over_rx_pressure * egress_.util(ctx.now);
  if (fast) {
    const std::size_t lane = op.src_node % lanes_.size();
    lane_last_active_[lane] = ctx.now;
    bool dual = false;
    constexpr sim::SimDur kLaneWindow = sim::us(20);
    for (std::size_t i = 0; i < lane_last_active_.size(); ++i) {
      if (i != lane && lane_last_active_[i] + kLaneWindow > ctx.now &&
          lane_last_active_[i] != 0) {
        dual = true;
        break;
      }
    }
    double cyc = static_cast<double>(cfg_.rx_dispatch_cycle) *
                 cfg_.fastpath_cycle_factor * pressure;
    if (op.op == Opcode::kRead || is_atomic(op.op))
      cyc *= cfg_.request_dispatch_factor;
    if (dual) cyc *= cfg_.noc_dual_lane_boost;
    const auto cyc_j = rng_.jitter(static_cast<sim::SimDur>(cyc));
    ctx.t = lanes_[lane].reserve(ctx.t, cyc_j);
    fastpath_util_.add(ctx.now, cyc_j);
  } else {
    const double cyc =
        static_cast<double>(cfg_.rx_dispatch_cycle) * pressure;
    ctx.t = store_forward_.reserve(ctx.t,
                                   rng_.jitter(static_cast<sim::SimDur>(cyc)));
  }

  // Rx processing unit; medium messages need a second engine pass.
  double pu_scale = 1.0;
  if (inbound_payload > cfg_.fastpath_max_bytes && inbound_payload <= cfg_.mtu)
    pu_scale = cfg_.medium_pass_factor;
  ctx.t = rx_pu_.reserve(
      ctx.t,
      rng_.jitter(static_cast<sim::SimDur>(
          static_cast<double>(pu_time(
              cfg_.pu_base, cfg_.pu_per_kib,
              static_cast<std::uint32_t>(inbound_payload))) *
          pu_scale)));
  note(ctx, entered);
}

// -------------------------------------------------------------- translation

void TranslationStage::lock_atomic(PipelineCtx& ctx) {
  ctx.t = atomic_lock_.reserve(ctx.t, rng_.jitter(cfg_.atomic_lock_time));
}

void TranslationStage::posted_write(PipelineCtx& ctx) {
  ctx.t += rng_.jitter(cfg_.posted_write_base);
}



// ------------------------------------------------------------ response gen

void ResponseGen::read_response(PipelineCtx& ctx, std::uint32_t size) {
  const sim::SimTime entered = ctx.now;
  // Cut-through for small payloads; a staging pass for store-and-forward
  // (medium) sizes, whose SRAM write port is shared with the ingress
  // cut-through path (staging_pressure); and a streaming DMA-driven path
  // for multi-MTU responses that bypasses the staging port.
  ctx.wire_pkts = packet_count(size, cfg_.mtu);
  sim::SimDur gen;
  if (size <= cfg_.fastpath_max_bytes) {
    gen = cfg_.resp_gen_small;
  } else if (ctx.wire_pkts == 1) {
    const double mult =
        1.0 + cfg_.staging_pressure * dispatch_.fastpath_util().value(ctx.now);
    gen = static_cast<sim::SimDur>(static_cast<double>(cfg_.resp_gen_staged) *
                                   mult);
  } else {
    gen = cfg_.resp_gen_small * ctx.wire_pkts;
  }
  ctx.t = gen_.reserve(ctx.now, rng_.jitter(gen));
  egress_.add_util(ctx.now, gen);
  note(ctx, entered);
}

void ResponseGen::nak(PipelineCtx& ctx) {
  const sim::SimTime entered = ctx.t;
  ctx.t = gen_.reserve(ctx.t, rng_.jitter(cfg_.resp_gen_small));
  egress_.control(ctx, cfg_.ack_bytes + cfg_.pkt_header_bytes);
  note(ctx, entered);
}

void ResponseGen::ack(PipelineCtx& ctx, Qpn src_qpn) {
  const sim::SimTime entered = ctx.now;
  // ACKs coalesce per QP: one full response generation per coalesce window,
  // piggybacked otherwise.  Bulk writes ride the coalesced path by
  // construction (their windows overlap).
  auto [last, fresh] = last_ack_at_.try_emplace(src_qpn, 0);
  const bool coalesced =
      !fresh && *last + cfg_.ack_coalesce_window > ctx.now;
  *last = ctx.now;
  const sim::SimDur gen =
      coalesced ? cfg_.resp_gen_ack / 8 : cfg_.resp_gen_ack;
  ctx.t = gen_.reserve(ctx.now, rng_.jitter(gen));
  egress_.control(ctx, cfg_.ack_bytes + cfg_.pkt_header_bytes);
  note(ctx, entered);
}

void ResponseGen::atomic_response(PipelineCtx& ctx) {
  const sim::SimTime entered = ctx.now;
  ctx.t = gen_.reserve(ctx.now, rng_.jitter(cfg_.resp_gen_small));
  egress_.control(ctx, 8 + cfg_.pkt_header_bytes);
  note(ctx, entered);
}

// --------------------------------------------------------------- completion

void CompletionStage::process_response(PipelineCtx& ctx,
                                       const InFlightMsg& msg) {
  const sim::SimTime entered = ctx.t;
  ctx.t = rx_pu_.reserve(ctx.t, rng_.jitter(cfg_.pu_base / 2));
  if (msg.kind == InFlightMsg::Kind::kReadResponse) {
    ctx.t = pcie_.write(ctx.t, msg.op.size);
  }
  ctx.t = pcie_.write(ctx.t, 64);  // CQE
  note(ctx, entered);

  // Materialize data movement and notify the verbs layer at CQE time.
  const InFlightMsg m = msg;
  const sim::SimTime t = ctx.t;
  auto fn = [m, t] {
    if (m.kind == InFlightMsg::Kind::kReadResponse &&
        m.requester_local != nullptr && m.responder_data != nullptr) {
      std::memcpy(m.requester_local, m.responder_data, m.op.size);
    }
    if (m.kind == InFlightMsg::Kind::kAtomicResponse &&
        m.requester_local != nullptr) {
      store_u64(m.requester_local, m.atomic_result);
    }
    if (m.sink != nullptr) {
      m.sink->on_completion(m.op.wr_id, m.status, t, m.atomic_result);
    }
  };
  static_assert(sim::InlineFn::fits<decltype(fn)>);
  sched_.at(t, std::move(fn));
}

}  // namespace ragnar::rnic::pipeline
