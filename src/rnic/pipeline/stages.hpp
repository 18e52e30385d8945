#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "rnic/counters.hpp"
#include "rnic/message.hpp"
#include "rnic/pipeline/config.hpp"
#include "rnic/pipeline/context.hpp"
#include "rnic/pipeline/stage.hpp"
#include "rnic/translation.hpp"
#include "sim/flat_map.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"

// The pipeline stages of the device model (paper Fig 3).
//
// Requester path (red):   DoorbellFetch -> TxArbiter -> WireEgress.
// Responder path (yellow/green): WireEgress::accept -> RxAdmission ->
//   RxDispatch -> TranslationStage (READ/atomic only) -> PayloadDma ->
//   ResponseGen -> TxArbiter::grant_response -> WireEgress::respond.
// Requester completion:   CompletionStage.
//
// Each stage owns the reservation servers and DeviceProfile knobs of one
// microarchitectural structure; the Rnic orchestrator owns only the message
// branching and data movement (src/rnic/rnic.cpp).  Stage-to-stage coupling
// that carries the paper's cross-path contention (KF1 staging pressure, KF3
// egress-over-ingress pressure) is expressed as explicit references between
// the stages involved.
namespace ragnar::rnic::pipeline {

// Shared host-interface bus.  PCIe is full duplex: host-to-device reads
// (WQE fetch, payload gather, responder DMA-fetch) and device-to-host
// writes (payload placement, CQE writes) occupy independent directions.
class PcieBus {
 public:
  explicit PcieBus(const PcieConfig& cfg) : lat_(cfg.lat) {
    rd_.configure(cfg.gbps, cfg.txn_overhead);
    wr_.configure(cfg.gbps, cfg.txn_overhead);
  }
  // Read completions pay the one-way DMA latency; posted writes do not.
  sim::SimTime read(sim::SimTime t, std::uint64_t bytes) {
    return rd_.reserve(t, bytes) + lat_;
  }
  sim::SimTime write(sim::SimTime t, std::uint64_t bytes) {
    return wr_.reserve(t, bytes);
  }

 private:
  sim::BandwidthServer rd_;
  sim::BandwidthServer wr_;
  sim::SimDur lat_;
};

// Doorbell ring + WQE fetch (and payload gather for non-inline outbound
// payloads) over PCIe.  Decides the inline-vs-gather split.
class DoorbellFetch final : public Stage {
 public:
  DoorbellFetch(const DoorbellFetchConfig& cfg, PcieBus& pcie)
      : cfg_(cfg), pcie_(pcie) {}
  const char* name() const override { return "doorbell_fetch"; }
  StageId id() const override { return StageId::kDoorbellFetch; }
  void process(PipelineCtx& ctx) override;

 private:
  DoorbellFetchConfig cfg_;
  PcieBus& pcie_;
};

// Tx arbiter grant + Tx processing unit.  Bulk (DMA-gather) writes receive
// a larger quantum: fewer scheduling cycles per byte.  Shared between the
// requester path (process) and response generation (grant_response) — that
// sharing is one half of the paper's Tx-over-Rx priority coupling.
class TxArbiter final : public Stage {
 public:
  TxArbiter(const TxArbiterConfig& cfg, JitterRng& rng)
      : cfg_(cfg), rng_(rng), pu_(cfg.tx_pu_count) {}
  const char* name() const override { return "tx_arbiter"; }
  StageId id() const override { return StageId::kTxArbiter; }
  // WQE grant: bulk-write quantum scaling + grant trace point.
  void process(PipelineCtx& ctx) override;
  // Response-side grant: plain cycle, no quantum scaling, no grant trace.
  void grant_response(PipelineCtx& ctx, std::uint32_t size);

 private:
  TxArbiterConfig cfg_;
  JitterRng& rng_;
  sim::FifoServer arb_;
  sim::PoolServer pu_;
};

// Egress/ingress port serialization, ETS per-TC pacing, and the egress
// utilization estimate that feeds KF3 back-pressure into RxDispatch.
class WireEgress final : public Stage {
 public:
  WireEgress(const WireEgressConfig& cfg, PortCounters& counters);
  const char* name() const override { return "wire_egress"; }
  StageId id() const override { return StageId::kWireEgress; }

  // Requester path: compute the request wire image, serialize, account.
  void process(PipelineCtx& ctx) override;
  // Response path: wire image from ctx.wire_pkts (set by ResponseGen).
  void respond(PipelineCtx& ctx, std::uint32_t size);
  // Control frames (ACK/NAK/atomic responses) ride a per-packet priority
  // lane: they pay serialization but never queue behind payload responses
  // and are exempt from ETS accounting and KF3 pressure tracking.
  void control(PipelineCtx& ctx, std::uint64_t bytes);
  // Ingress serialization + rx accounting for an arriving message.
  void accept(PipelineCtx& ctx, bool is_request);

  // Egress port: full-rate serializer plus per-TC ETS pacing when more than
  // one TC is recently active.
  sim::SimTime reserve(sim::SimTime now, sim::SimTime t, TrafficClass tc,
                       std::uint64_t bytes);

  // PFC pause from the attached switch (fabric::Topology): payload egress
  // may not start serializing before the pause horizon.  Horizons only ever
  // extend (max), mirroring repeated XOFF refreshes; control frames stay
  // exempt, as PFC pauses lossless data classes, not the ACK/credit lane.
  // Never called on point-to-point topologies, so pre-switch scenarios keep
  // their exact event sequence.
  void extend_tx_pause(sim::SimTime until) {
    if (until > tx_pause_until_) tx_pause_until_ = until;
  }
  sim::SimTime tx_pause_until() const { return tx_pause_until_; }
  // Cumulative time payload transmissions were deferred by PFC pause.
  sim::SimDur pause_deferred_total() const { return pause_deferred_total_; }

  EtsConfig& ets() { return ets_; }
  // Re-derive the per-TC pacer rates after an ETS weight change.
  void reconfigure_pacers();

  // KF3 pressure source (payload egress busy fraction).
  double util(sim::SimTime now) { return egress_util_.value(now); }
  void add_util(sim::SimTime now, sim::SimDur busy) {
    egress_util_.add(now, busy);
  }

 private:
  // rnic.tx / rnic.rx (+ _bytes){tc, op} for an outbound request / arriving
  // request; one thread-local load + branch when observability is off.
  void count_traffic(bool rx, TrafficClass tc, Opcode op,
                     std::uint64_t bytes) {
    if (obs::current() != nullptr) count_traffic_slow(rx, tc, op, bytes);
  }
  void count_traffic_slow(bool rx, TrafficClass tc, Opcode op,
                          std::uint64_t bytes);

  // The count_traffic handles, indexed by (direction, tc, opcode) and
  // allocated on the first instrumented message.
  struct TrafficMetrics {
    obs::Cached<obs::Counter> msgs;
    obs::Cached<obs::Counter> bytes;
  };
  using TrafficTable =
      std::array<TrafficMetrics, 2 * kNumTrafficClasses * kNumOpcodes>;

  WireEgressConfig cfg_;
  PortCounters& counters_;
  EtsConfig ets_;
  sim::BandwidthServer egress_link_;
  sim::BandwidthServer ingress_link_;
  std::vector<sim::BandwidthServer> tc_pacer_;
  std::vector<sim::SimTime> tc_last_active_;
  DecayedUtil egress_util_;
  sim::SimTime tx_pause_until_ = 0;
  sim::SimDur pause_deferred_total_ = 0;
  std::unique_ptr<TrafficTable> traffic_;
};

// Arrival accounting + admission control (Grain-I pacing, partitioned-mode
// TDM slotting).  Deferred admissions re-enter through the event queue so
// shared-stage reservations always happen in time order.
class RxAdmission final : public Stage {
 public:
  explicit RxAdmission(const RxAdmissionConfig& cfg) : cfg_(cfg) {}
  const char* name() const override { return "rx_admission"; }
  StageId id() const override { return StageId::kRxAdmission; }

  // Tenant accounting (Grain-I/II/III observables).  `now` timestamps the
  // streaming-sink samples (Grain-II per-(src, opcode, size-class) message
  // stream, Grain-III rkey/QP touches) the online detectors consume.
  void account(sim::SimTime now, const WireOp& op);
  // Admission time for the message (== now when admitted immediately).
  // Emits the admission.defer span/counter when deferred.
  sim::SimTime admit(sim::SimTime now, const WireOp& op,
                     std::uint64_t wire_bytes);

  // Window counters handed to a HARMONIC-style monitor poll.
  sim::FlatMap<NodeId, SrcWindowStats> take_stats();

  // Runtime knobs (applied atomically through Rnic::configure()).
  void configure_pacing(double gbps) { tenant_pacing_gbps_ = gbps; }
  void set_tdm(bool on) { tdm_ = on; }

  // Per-tenant scheduled-time cap mutation (rnic::ControlPort): the next
  // admit() of `src` sees the new cap — admit() re-derives the tenant's
  // pacer lazily whenever the cap differs from the pacer rate.
  void set_tenant_cap(NodeId src, double gbps) {
    if (gbps > 0) {
      tenant_caps_[src] = gbps;
    } else {
      tenant_caps_.erase(src);
    }
  }
  void clear_tenant_cap(NodeId src) { tenant_caps_.erase(src); }
  bool tdm() const { return tdm_; }

  double tenant_pacing_gbps() const { return tenant_pacing_gbps_; }
  double tenant_cap_gbps(NodeId src) const {
    const double* cap = tenant_caps_.find(src);
    return cap == nullptr ? 0.0 : *cap;
  }
  const sim::FlatMap<NodeId, double>& tenant_caps() const {
    return tenant_caps_;
  }

 private:
  RxAdmissionConfig cfg_;
  sim::FlatMap<NodeId, SrcWindowStats> src_stats_;
  sim::FlatMap<NodeId, sim::BandwidthServer> tenant_pacer_;
  sim::FlatMap<NodeId, double> tenant_caps_;
  sim::FlatMap<NodeId, sim::FifoServer> tdm_admission_;
  double tenant_pacing_gbps_ = 0;
  bool tdm_ = false;
};

// Ingress dispatcher + Rx processing units.  KF3: egress pressure slows
// ingress dispatch.  KF2: the fast path is source-hash laned; dual-lane
// activity boosts the clock.  Medium messages need a second engine pass
// (KF1's victim selection).
class RxDispatch final : public Stage {
 public:
  RxDispatch(const RxDispatchConfig& cfg, WireEgress& egress, JitterRng& rng);
  const char* name() const override { return "rx_dispatch"; }
  StageId id() const override { return StageId::kRxDispatch; }
  void process(PipelineCtx& ctx) override;

  // Staging-SRAM pressure source shared with ResponseGen (KF1).
  DecayedUtil& fastpath_util() { return fastpath_util_; }
  // The Rx engines also run the requester-side completion path.
  sim::PoolServer& rx_pu() { return rx_pu_; }

 private:
  RxDispatchConfig cfg_;
  WireEgress& egress_;
  JitterRng& rng_;
  std::vector<sim::FifoServer> lanes_;
  std::vector<sim::SimTime> lane_last_active_;
  sim::FifoServer store_forward_;
  sim::PoolServer rx_pu_;
  DecayedUtil fastpath_util_;
};

// Decoratable translation path: the READ responder walk.  The base
// implementation is TranslationStage; decorators (mitigation noise, future
// defense interposers) wrap it without the orchestrator knowing.
class TranslationPath {
 public:
  virtual ~TranslationPath() = default;
  virtual sim::SimTime translate(sim::SimTime t, const XlRequest& req) = 0;
};

// Translation & protection unit stage (offset effect + ICM/MTT miss,
// Grain-III/IV) plus the atomic serialization lock and the posted-write
// fixed-latency pipe.
class TranslationStage final : public Stage, public TranslationPath {
 public:
  TranslationStage(const TranslationStageConfig& cfg, JitterRng& rng,
                   sim::Xoshiro256 unit_rng)
      : cfg_(cfg), rng_(rng), unit_(cfg.unit, unit_rng) {}
  const char* name() const override { return "translation"; }
  StageId id() const override { return StageId::kTranslation; }

  // Shared-unit walk (READ and atomic responder accesses).
  sim::SimTime translate(sim::SimTime t, const XlRequest& req) override {
    return unit_.access(t, req);
  }
  // Atomics serialize on a lock behind the walk.
  void lock_atomic(PipelineCtx& ctx);
  // Posted-write pipeline: fixed latency, address-independent (footnote 9).
  void posted_write(PipelineCtx& ctx);

  TranslationUnit& unit() { return unit_; }
  const TranslationUnit& unit() const { return unit_; }

 private:
  TranslationStageConfig cfg_;
  JitterRng& rng_;
  TranslationUnit unit_;
  sim::FifoServer atomic_lock_;
};

// Section VII noise mitigation as a stage decorator: uniform [0, max] added
// to every READ translation on the responder path.  With max == 0 the
// decorator is transparent — no RNG draw, byte-identical event sequence.
class NoiseDecorator final : public TranslationPath {
 public:
  NoiseDecorator(TranslationStage& inner, JitterRng& rng)
      : inner_(inner), rng_(rng) {}

  void set_noise(sim::SimDur max) { noise_ = max; }
  sim::SimDur noise() const { return noise_; }

  sim::SimTime translate(sim::SimTime t, const XlRequest& req) override {
    t = inner_.translate(t, req);
    if (noise_ > 0) {
      t += static_cast<sim::SimDur>(rng_.uniform() *
                                    static_cast<double>(noise_));
    }
    return t;
  }

 private:
  TranslationStage& inner_;
  JitterRng& rng_;
  sim::SimDur noise_ = 0;
};

// Payload movement over the shared PCIe bus.
class PayloadDma final : public Stage {
 public:
  explicit PayloadDma(PcieBus& pcie) : pcie_(pcie) {}
  const char* name() const override { return "payload_dma"; }
  StageId id() const override { return StageId::kPayloadDma; }

  // DMA-fetch from host memory (READ responses, +DMA latency).
  void fetch(PipelineCtx& ctx, std::uint64_t bytes) {
    const sim::SimTime entered = ctx.t;
    ctx.t = pcie_.read(ctx.t, bytes);
    note(ctx, entered);
  }
  // Posted DMA write into host memory (WRITE/SEND payload landing).
  void store(PipelineCtx& ctx, std::uint64_t bytes) {
    const sim::SimTime entered = ctx.t;
    ctx.t = pcie_.write(ctx.t, bytes);
    note(ctx, entered);
  }
  // Atomic read-modify-write round trip (8 bytes each way).
  void atomic_rmw(PipelineCtx& ctx) {
    const sim::SimTime entered = ctx.t;
    ctx.t = pcie_.read(ctx.t, 8);
    ctx.t = pcie_.write(ctx.t, 8);
    note(ctx, entered);
  }

 private:
  PcieBus& pcie_;
};

// Shared, single-ported response generator: READ responses (cut-through /
// staged / streaming), per-QP-coalesced ACKs, NAKs and atomic responses.
// The staging pass shares its SRAM write port with the ingress cut-through
// path (KF1's staging_pressure), and generated responses feed the egress
// utilization that pressures ingress dispatch (KF3).
class ResponseGen final : public Stage {
 public:
  ResponseGen(const ResponseGenConfig& cfg, WireEgress& egress,
              RxDispatch& dispatch, JitterRng& rng)
      : cfg_(cfg), egress_(egress), dispatch_(dispatch), rng_(rng) {}
  const char* name() const override { return "response_gen"; }
  StageId id() const override { return StageId::kResponseGen; }

  // READ response generation at DMA-delivery time; sets ctx.wire_pkts.
  // The caller continues through TxArbiter::grant_response + respond().
  void read_response(PipelineCtx& ctx, std::uint32_t size);
  // NAK/RNR-NAK: generation inline with request processing (at ctx.t),
  // then the control lane.
  void nak(PipelineCtx& ctx);
  // WRITE/SEND acknowledgment with per-QP coalescing, at its start time.
  void ack(PipelineCtx& ctx, Qpn src_qpn);
  // Atomic response: 8 bytes on the control lane, at its start time.
  void atomic_response(PipelineCtx& ctx);

 private:
  ResponseGenConfig cfg_;
  WireEgress& egress_;
  RxDispatch& dispatch_;
  JitterRng& rng_;
  sim::FifoServer gen_;
  sim::FlatMap<Qpn, sim::SimTime> last_ack_at_;
};

// Requester-side completion: Rx engine pass, payload placement for
// READ/atomic results, CQE write, then data materialization + verbs
// notification at CQE time.
class CompletionStage final : public Stage {
 public:
  CompletionStage(const CompletionConfig& cfg, PcieBus& pcie,
                  sim::PoolServer& rx_pu, sim::Scheduler& sched,
                  JitterRng& rng)
      : cfg_(cfg), pcie_(pcie), rx_pu_(rx_pu), sched_(sched), rng_(rng) {}
  const char* name() const override { return "completion"; }
  StageId id() const override { return StageId::kCompletion; }

  void process_response(PipelineCtx& ctx, const InFlightMsg& msg);

 private:
  CompletionConfig cfg_;
  PcieBus& pcie_;
  sim::PoolServer& rx_pu_;
  sim::Scheduler& sched_;
  JitterRng& rng_;
};

}  // namespace ragnar::rnic::pipeline
