// defense_online: the streaming obs backbone feeding the online defense
// pipeline (docs/DEFENSE.md).  Three traffic families run under a per-trial
// StreamSink, each driven in chunks with defense::online::OnlinePipeline
// consuming between chunks:
//
//   attack    a Bankrupt-style covert sender (bench/cloud_scenarios.cpp)
//             duty-cycling WRITE bursts at the bit-window cadence through a
//             shared ToR uplink — the ULI-periodicity signature Grain-IV
//             keys on — while a co-tenant probe decodes the channel, giving
//             the covert capacity the defense is trading against.
//   benign    cloud_noisy_neighbor-style tenants: hogs and a victim in
//             steady closed loops through a shared ToR.  The pool is kept
//             deep (no PFC sawtooth): congestion-control oscillation is
//             itself periodic and would be flagged — a real limitation,
//             noted in docs/DEFENSE.md — so the false-alarm population here
//             is loud but steady.
//   enforced  the attack rig with per-tenant caps at the receiving NIC
//             (RxAdmission pacing): the residual covert capacity once the
//             detector's verdict is acted on.
//
// A threshold sweep over the Grain-IV score then emits ROC rows (detection
// rate vs false-alarm rate vs expected covert-capacity loss) through the
// harness CSV/JSON path, and a bounded-memory run feeds the pipeline until
// the sample target is hit, asserting footprint_bytes() stays under the
// configuration-derived max_footprint_bytes() the whole way.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/cloud_common.hpp"
#include "covert/common.hpp"
#include "defense/online/pipeline.hpp"
#include "fabric/topology.hpp"
#include "obs/obs.hpp"
#include "rnic/device_profile.hpp"
#include "scenario/scenario.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "verbs/context.hpp"

using namespace ragnar;

namespace {

using cloud::Conn;
using cloud::connect;
using cloud::post_one;
using defense::online::OnlineConfig;
using defense::online::OnlinePipeline;
using defense::online::TenantScore;

// Everything one traffic trial reports back to the threshold sweep.
struct TrafficOutcome {
  double suspect_score = 0;          // Grain-IV periodicity of the suspect
  std::vector<double> benign_scores; // periodicity of the benign tenants
  double probe_score = 0;            // covert *receiver* (attack rigs only)
  double capacity_bps = 0;           // decoded covert capacity (attack rigs)
  double suspect_p99_bytes = 0;
  bool grain2 = false;
  bool grain3 = false;
  std::uint64_t samples = 0;
  std::uint64_t sink_dropped = 0;
  std::size_t footprint = 0;
  std::size_t footprint_cap = 0;
  bool bounded = true;  // footprint <= cap held at every consume point
};

// Shared driving loop: advance the engine in `chunk`-sized slices of
// simulated time, consuming the ambient streaming sink into `pipe` at every
// boundary (the incremental-consumer shape docs/DEFENSE.md specifies), and
// check the pipeline's hard memory bound as we go.
template <typename DonePred>
void drive_chunked(sim::Engine& eng, OnlinePipeline& pipe, sim::SimDur chunk,
                   DonePred done, bool* bounded) {
  sim::SimTime upto = eng.now();
  while (!done()) {
    upto += chunk;
    eng.run_until(upto);
    if (obs::StreamSink* sink = obs::stream()) pipe.consume(*sink);
    if (pipe.footprint_bytes() > pipe.max_footprint_bytes()) *bounded = false;
  }
}

void finish_outcome(TrafficOutcome* out, const OnlinePipeline& pipe) {
  out->samples = pipe.samples_consumed();
  out->footprint = pipe.footprint_bytes();
  out->footprint_cap = pipe.max_footprint_bytes();
  if (out->footprint > out->footprint_cap) out->bounded = false;
  if (obs::StreamSink* sink = obs::stream()) {
    out->sink_dropped = sink->dropped_total();
  }
}

// ------------------------------------------------------------------------
// attack / enforced: duty-cycled Bankrupt sender + probe decoder
// ------------------------------------------------------------------------

// Same two-rack shape as cloud_bankrupt: tenant A (h0 -> h2) signals
// through the tor0 uplink queue, tenant B (h1 -> h3) times probe READs
// across it.  The sender here is *duty-cycled* rather than closed-loop: one
// burst at every bit-window edge, sized by the bit, then silence until the
// next edge.  That is the shape a real modulator needs (the bit clock is
// the channel), and the burst cadence is exactly the periodic line the
// Grain-IV detector scores.
struct AttackRig {
  sim::Engine eng;
  std::unique_ptr<fabric::Topology> topo;
  fabric::SwitchId tor0 = 0;
  std::vector<std::unique_ptr<verbs::Context>> ctx;
  rnic::NodeId sender_id = 0;
  rnic::NodeId prober_id = 0;
  Conn tx;
  Conn probe;

  std::vector<int> frame;
  sim::SimTime t0 = 0;
  sim::SimTime t_end = 0;
  sim::SimDur window = 0;
  std::vector<double> rtt_sum;
  std::vector<std::uint64_t> rtt_cnt;
  bool tx_done = false;
  bool rx_done = false;

  static constexpr std::uint32_t kBit1Bytes = 4u << 10;
  static constexpr std::uint32_t kBit0Bytes = 256;
  static constexpr std::uint32_t kProbeBytes = 256;
  static constexpr std::uint32_t kBurst = 8;

  AttackRig(std::uint64_t seed, std::size_t shards, double sender_cap_gbps)
      : eng(sim::Engine::Options{static_cast<std::uint32_t>(shards),
                                 sim::kMillisecond}) {
    const sim::ShardId rack1 =
        shards == 0 ? 0 : static_cast<sim::ShardId>(1 % shards);
    sim::Xoshiro256 rng(seed);
    const rnic::DeviceProfile prof =
        rnic::make_profile(rnic::DeviceModel::kCX5);
    fabric::Topology::Builder b(eng);
    const auto h0 = b.add_host(prof, rng.fork(), 0);
    const auto h1 = b.add_host(prof, rng.fork(), 0);
    const auto h2 = b.add_host(prof, rng.fork(), rack1);
    const auto h3 = b.add_host(prof, rng.fork(), rack1);
    sender_id = h0;
    prober_id = h1;
    fabric::SwitchSpec tor;
    tor.buffer_bytes = 4u << 20;  // deep pool, PFC off: pure queueing delay
    tor.pfc_xoff_bytes = 0;
    tor.name = "tor0";
    tor0 = b.add_switch(tor, 0);
    fabric::SwitchSpec tor_b = tor;
    tor_b.name = "tor1";
    const auto tor1 = b.add_switch(tor_b, rack1);
    const auto access = fabric::LinkSpec::symmetric(sim::ns(250), 100.0);
    b.link(fabric::NodeRef::host(h0), fabric::NodeRef::sw(tor0), access)
        .link(fabric::NodeRef::host(h1), fabric::NodeRef::sw(tor0), access)
        .link(fabric::NodeRef::host(h2), fabric::NodeRef::sw(tor1), access)
        .link(fabric::NodeRef::host(h3), fabric::NodeRef::sw(tor1), access)
        .link(fabric::NodeRef::sw(tor0), fabric::NodeRef::sw(tor1),
              fabric::LinkSpec::symmetric(sim::ns(500), 25.0));
    topo = b.build();
    for (rnic::NodeId h : {h0, h1, h2, h3}) {
      ctx.push_back(std::make_unique<verbs::Context>(
          *topo, topo->host(h), "h" + std::to_string(h)));
    }
    verbs::QpConfig qp;
    qp.max_send_wr = 64;
    tx = connect(*ctx[0], *ctx[2], 1, qp);
    probe = connect(*ctx[1], *ctx[3], 1, qp);
    if (sender_cap_gbps > 0) {
      // The enforcement arm: cap the flagged tenant at the receiving NIC
      // (RxAdmission pacing), the same lever cloud_noisy_neighbor's defense
      // phase uses.
      ctx[2]->device().control().set_tenant_cap(sender_id, sender_cap_gbps);
    }
  }

  int bit_at(sim::SimTime t) const {
    const auto idx = static_cast<std::size_t>((t - t0) / window);
    return frame[std::min(idx, frame.size() - 1)];
  }

  // One burst per bit window, then sleep to the next edge.  The queueing
  // the burst leaves behind in tor0's uplink is what the probe reads.
  sim::Task tx_actor() {
    sim::Scheduler& sched = ctx[0]->scheduler();
    verbs::Wc wc;
    for (;;) {
      const sim::SimTime now = eng.local_now();
      if (now >= t_end) break;
      if (now >= t0) {
        const std::uint32_t bytes = bit_at(now) ? kBit1Bytes : kBit0Bytes;
        for (std::uint32_t i = 0; i < kBurst; ++i) {
          post_one(tx, verbs::WrOpcode::kRdmaWrite, bytes);
        }
      }
      while (tx.cq().poll_one(&wc)) {
      }
      const sim::SimTime next =
          now < t0 ? t0 : t0 + ((now - t0) / window + 1) * window;
      co_await sched.sleep(next - now);
    }
    tx_done = true;
  }

  sim::Task rx_actor() {
    post_one(probe, verbs::WrOpcode::kRdmaRead, kProbeBytes);
    verbs::Wc wc;
    while (eng.local_now() < t_end) {
      co_await probe.cq().wait(1);
      while (probe.cq().poll_one(&wc)) {
        // Bin by post time, as cloud_bankrupt does: a probe issued inside a
        // 1-window carries that window's delay even when it completes after
        // the edge.
        if (wc.status == rnic::WcStatus::kSuccess && wc.posted_at >= t0 &&
            wc.posted_at < t_end) {
          const auto w =
              static_cast<std::size_t>((wc.posted_at - t0) / window);
          if (w < rtt_sum.size()) {
            rtt_sum[w] += sim::to_us(wc.latency());
            rtt_cnt[w] += 1;
          }
        }
        if (eng.local_now() < t_end) {
          post_one(probe, verbs::WrOpcode::kRdmaRead, kProbeBytes);
        }
      }
    }
    rx_done = true;
  }
};

TrafficOutcome run_attack(std::uint64_t seed, std::size_t shards,
                          double sender_cap_gbps, std::size_t payload_bits,
                          sim::SimDur window, const OnlineConfig& det) {
  AttackRig rig(seed, shards, sender_cap_gbps);

  constexpr std::size_t kCalBits = 16;
  std::vector<int> calibration(kCalBits);
  for (std::size_t i = 0; i < kCalBits; ++i)
    calibration[i] = static_cast<int>(i & 1);
  sim::Xoshiro256 rng(seed);
  const std::vector<int> payload = covert::random_bits(payload_bits, rng);
  rig.frame = calibration;
  rig.frame.insert(rig.frame.end(), payload.begin(), payload.end());
  rig.window = window;
  rig.rtt_sum.assign(rig.frame.size(), 0.0);
  rig.rtt_cnt.assign(rig.frame.size(), 0);
  rig.t0 = rig.eng.now() + sim::us(50);
  rig.t_end = rig.t0 + window * rig.frame.size();

  TrafficOutcome out;
  OnlinePipeline pipe(det);
  rig.eng.spawn(rig.tx_actor(), 0);
  rig.eng.spawn(rig.rx_actor(), 0);
  drive_chunked(rig.eng, pipe, sim::us(400),
                [&] { return rig.tx_done && rig.rx_done; }, &out.bounded);

  std::vector<double> means(rig.frame.size(), 0.0);
  for (std::size_t i = 0; i < rig.frame.size(); ++i) {
    if (rig.rtt_cnt[i] > 0)
      means[i] = rig.rtt_sum[i] / static_cast<double>(rig.rtt_cnt[i]);
  }
  covert::ChannelRun run;
  run.sent = payload;
  run.received = covert::ThresholdDecoder::decode(
      means, calibration, &run.threshold, &run.one_is_high,
      &run.cal_separation);
  run.elapsed = window * payload.size();
  out.capacity_bps = run.effective_bps();

  const TenantScore sender = pipe.score(rig.sender_id);
  const TenantScore prober = pipe.score(rig.prober_id);
  out.suspect_score = sender.periodicity;
  out.probe_score = prober.periodicity;
  out.suspect_p99_bytes = sender.p99_msg_bytes;
  out.grain2 = sender.grain2;
  out.grain3 = sender.grain3;
  finish_outcome(&out, pipe);
  return out;
}

// ------------------------------------------------------------------------
// benign: the cloud_noisy_neighbor incast as the false-alarm population
// ------------------------------------------------------------------------

TrafficOutcome run_benign(std::uint64_t seed, std::size_t shards,
                          sim::SimDur measure, const OnlineConfig& det) {
  sim::Engine eng(sim::Engine::Options{static_cast<std::uint32_t>(shards),
                                       sim::kMillisecond});
  const auto place = [&](std::size_t i) {
    return shards == 0 ? sim::ShardId{0}
                       : static_cast<sim::ShardId>(i % shards);
  };
  sim::Xoshiro256 rng(seed);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  fabric::Topology::Builder b(eng);
  const auto victim_h = b.add_host(prof, rng.fork(), place(0));
  const auto hog1_h = b.add_host(prof, rng.fork(), place(1));
  const auto hog2_h = b.add_host(prof, rng.fork(), place(2));
  const auto server_h = b.add_host(prof, rng.fork(), place(3));
  fabric::SwitchSpec tor_spec;
  // Deep pool, PFC off: the incast queues but never oscillates.  A PFC
  // sawtooth is genuinely periodic and Grain-IV would (correctly, by its
  // own definition) flag it — separating congestion-control periodicity
  // from covert modulation is out of scope here (docs/DEFENSE.md).
  tor_spec.buffer_bytes = 4u << 20;
  tor_spec.pfc_xoff_bytes = 0;
  const auto tor = b.add_switch(tor_spec, place(0));
  const auto access = fabric::LinkSpec::symmetric(sim::ns(250), 100.0);
  for (rnic::NodeId h : {victim_h, hog1_h, hog2_h, server_h}) {
    b.link(fabric::NodeRef::host(h), fabric::NodeRef::sw(tor), access);
  }
  std::unique_ptr<fabric::Topology> topo = b.build();

  std::vector<std::unique_ptr<verbs::Context>> ctx;
  for (rnic::NodeId h : {victim_h, hog1_h, hog2_h, server_h}) {
    ctx.push_back(std::make_unique<verbs::Context>(
        *topo, topo->host(h), "h" + std::to_string(h)));
  }
  verbs::QpConfig qp;
  qp.max_send_wr = 64;
  qp.timeout = sim::us(500);
  qp.retry_cnt = 7;
  Conn victim = connect(*ctx[0], *ctx[3], 1, qp);
  Conn hog1 = connect(*ctx[1], *ctx[3], 1, qp);
  Conn hog2 = connect(*ctx[2], *ctx[3], 1, qp);

  constexpr std::uint32_t kVictimBytes = 4u << 10;
  constexpr std::uint32_t kVictimDepth = 4;
  constexpr std::uint32_t kHogBytes = 64u << 10;
  constexpr std::uint32_t kHogDepth = 16;

  const sim::SimTime t_end = sim::us(200) + measure;
  bool victim_done = false;
  bool hog_done[2] = {false, false};

  auto victim_actor = [&]() -> sim::Task {
    for (std::uint32_t i = 0; i < kVictimDepth; ++i)
      post_one(victim, verbs::WrOpcode::kRdmaRead, kVictimBytes);
    verbs::Wc wc;
    while (eng.local_now() < t_end) {
      co_await victim.cq().wait(1);
      while (victim.cq().poll_one(&wc)) {
        if (eng.local_now() < t_end)
          post_one(victim, verbs::WrOpcode::kRdmaRead, kVictimBytes);
      }
    }
    victim_done = true;
  };
  auto hog_actor = [&](Conn& conn, bool* done) -> sim::Task {
    for (std::uint32_t i = 0; i < kHogDepth; ++i)
      post_one(conn, verbs::WrOpcode::kRdmaWrite, kHogBytes);
    verbs::Wc wc;
    while (eng.local_now() < t_end) {
      co_await conn.cq().wait(1);
      while (conn.cq().poll_one(&wc)) {
        if (eng.local_now() < t_end)
          post_one(conn, verbs::WrOpcode::kRdmaWrite, kHogBytes);
      }
    }
    *done = true;
  };

  TrafficOutcome out;
  OnlinePipeline pipe(det);
  eng.spawn(victim_actor(), place(0));
  eng.spawn(hog_actor(hog1, &hog_done[0]), place(1));
  eng.spawn(hog_actor(hog2, &hog_done[1]), place(2));
  drive_chunked(
      eng, pipe, sim::us(400),
      [&] { return victim_done && hog_done[0] && hog_done[1]; },
      &out.bounded);

  double peak = 0;
  bool g2 = false;
  bool g3 = false;
  for (const TenantScore& s : pipe.scores()) {
    out.benign_scores.push_back(s.periodicity);
    peak = std::max(peak, s.periodicity);
    g2 = g2 || s.grain2;
    g3 = g3 || s.grain3;
  }
  out.suspect_score = peak;
  out.grain2 = g2;
  out.grain3 = g3;
  finish_outcome(&out, pipe);
  return out;
}

// ------------------------------------------------------------------------
// bounded-memory run: feed the pipeline past the sample target under a
// deliberately small sink ring, proving both ends of the memory story —
// the rings drop (and count) instead of growing, and the detector state
// stays under max_footprint_bytes() no matter how many messages pass.
// ------------------------------------------------------------------------

struct BoundedReport {
  std::uint64_t target = 0;
  std::uint64_t consumed = 0;
  std::uint64_t sink_published = 0;
  std::uint64_t sink_dropped = 0;
  std::uint64_t stream_overflow = 0;
  std::uint64_t resource_overflow = 0;
  std::uint64_t tenants_dropped = 0;
  std::size_t footprint = 0;
  std::size_t footprint_cap = 0;
  double sim_ms = 0;
  bool bounded = true;
};

BoundedReport run_bounded(std::uint64_t seed, std::uint64_t target_samples,
                          const OnlineConfig& det) {
  // Own hub with a small ring: the point is to overflow it and watch the
  // drop counters, independent of the harness trial's sink sizing.
  obs::Hub::Config hcfg;
  hcfg.streaming = true;
  hcfg.stream_capacity = 2048;
  obs::Hub hub(hcfg);
  obs::ScopedHub ambient(&hub);

  sim::Engine eng(sim::Engine::Options{0, sim::kMillisecond});
  sim::Xoshiro256 rng(seed);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  fabric::Topology::Builder b(eng);
  const auto s1 = b.add_host(prof, rng.fork(), 0);
  const auto s2 = b.add_host(prof, rng.fork(), 0);
  const auto s3 = b.add_host(prof, rng.fork(), 0);
  const auto server_h = b.add_host(prof, rng.fork(), 0);
  fabric::SwitchSpec tor_spec;
  tor_spec.buffer_bytes = 2u << 20;
  tor_spec.pfc_xoff_bytes = 0;
  const auto tor = b.add_switch(tor_spec, 0);
  const auto access = fabric::LinkSpec::symmetric(sim::ns(250), 100.0);
  for (rnic::NodeId h : {s1, s2, s3, server_h}) {
    b.link(fabric::NodeRef::host(h), fabric::NodeRef::sw(tor), access);
  }
  std::unique_ptr<fabric::Topology> topo = b.build();
  std::vector<std::unique_ptr<verbs::Context>> ctx;
  for (rnic::NodeId h : {s1, s2, s3, server_h}) {
    ctx.push_back(std::make_unique<verbs::Context>(
        *topo, topo->host(h), "h" + std::to_string(h)));
  }
  verbs::QpConfig qp;
  qp.max_send_wr = 64;
  Conn c1 = connect(*ctx[0], *ctx[3], 1, qp);
  Conn c2 = connect(*ctx[1], *ctx[3], 1, qp);
  Conn c3 = connect(*ctx[2], *ctx[3], 1, qp);

  constexpr std::uint32_t kBytes = 512;
  constexpr std::uint32_t kDepth = 32;
  bool stop = false;
  auto sender = [&](Conn& conn) -> sim::Task {
    for (std::uint32_t i = 0; i < kDepth; ++i)
      post_one(conn, verbs::WrOpcode::kRdmaWrite, kBytes);
    verbs::Wc wc;
    while (!stop) {
      co_await conn.cq().wait(1);
      while (conn.cq().poll_one(&wc)) {
        if (!stop) post_one(conn, verbs::WrOpcode::kRdmaWrite, kBytes);
      }
    }
  };
  eng.spawn(sender(c1), 0);
  eng.spawn(sender(c2), 0);
  eng.spawn(sender(c3), 0);

  BoundedReport rep;
  rep.target = target_samples;
  OnlinePipeline pipe(det);
  rep.footprint_cap = pipe.max_footprint_bytes();
  sim::SimTime upto = 0;
  // 1 ms chunks against a 2048-deep ring: each chunk publishes far more
  // admission samples than the ring holds, so overflow is exercised on
  // every consume, not just the last.
  while (pipe.samples_consumed() < target_samples) {
    upto += sim::ms(1);
    eng.run_until(upto);
    pipe.consume(*hub.stream());
    if (pipe.footprint_bytes() > rep.footprint_cap) rep.bounded = false;
  }
  stop = true;
  eng.run_until_idle();
  pipe.consume(*hub.stream());
  if (pipe.footprint_bytes() > rep.footprint_cap) rep.bounded = false;

  rep.consumed = pipe.samples_consumed();
  rep.sink_published = hub.stream()->published_total();
  rep.sink_dropped = hub.stream()->dropped_total();
  rep.stream_overflow = pipe.stream_overflow();
  rep.resource_overflow = pipe.resource_overflow();
  rep.tenants_dropped = pipe.tenants_dropped();
  rep.footprint = pipe.footprint_bytes();
  rep.sim_ms = sim::to_us(eng.now()) / 1000.0;
  return rep;
}

}  // namespace

RAGNAR_SCENARIO(defense_online, "defense",
                "online Grain-II/III/IV detectors on the streaming obs "
                "backbone: ROC vs covert capacity loss",
                "3 attack + 3 benign + 2 enforced trials, 9 thresholds, "
                "150k-sample bounded-memory run",
                "--full 5+5+3 trials, 240-bit frames, 1M-sample "
                "bounded-memory run") {
  ctx.header(
      "online defense: streaming detectors vs Bankrupt-style modulation",
      "HARMONIC-style Grain-II/III counters + Grain-IV ULI-periodicity as "
      "incremental stream consumers; ROC = detection vs false alarms on "
      "benign incast vs covert capacity surrendered");

  const std::size_t payload_bits = ctx.full ? 240 : 64;
  const sim::SimDur window = sim::us(80);
  const std::size_t n_attack = ctx.full ? 5 : 3;
  const std::size_t n_benign = ctx.full ? 5 : 3;
  const std::size_t n_enforced = ctx.full ? 3 : 2;
  // Enforcement cap: well under the bit-1 burst rate (32 KiB / 80 us
  // ~ 3.3 Gb/s), so ACK backpressure smears the sender's duty cycle and
  // degrades the channel rather than merely delaying it.
  const double cap_gbps = 0.5;
  OnlineConfig det;  // defaults: 20 us bins x 256 = 5.12 ms signal window

  // The benign incast must cover the detector's full signal window with
  // steady traffic, or the leading zero bins would read as a giant step
  // edge and poison the autocorrelation with a false "period".
  const sim::SimDur benign_measure =
      det.bin_width * static_cast<sim::SimDur>(det.bins) + sim::ms(1);

  // ---- traffic sweep: every trial under its own streaming sink ----------
  const std::size_t total = n_attack + n_benign + n_enforced;
  std::vector<TrafficOutcome> outcomes(total);
  harness::SweepRunner sweep;
  const std::size_t shards = ctx.shards;
  for (std::size_t i = 0; i < n_attack; ++i) {
    sweep.add("attack/" + std::to_string(i),
              [&outcomes, payload_bits, window, det, shards,
               slot = i](harness::TrialContext& tctx) {
                outcomes[slot] = run_attack(tctx.seed, shards, 0.0,
                                            payload_bits, window, det);
                harness::Record rec;
                rec.set("kind", std::string("attack"));
                rec.set("grain4_score", outcomes[slot].suspect_score, 4);
                rec.set("capacity_bps", outcomes[slot].capacity_bps, 1);
                rec.set("samples", outcomes[slot].samples);
                return rec;
              });
  }
  for (std::size_t i = 0; i < n_benign; ++i) {
    sweep.add("benign/" + std::to_string(i),
              [&outcomes, benign_measure, det, shards,
               slot = n_attack + i](harness::TrialContext& tctx) {
                outcomes[slot] =
                    run_benign(tctx.seed, shards, benign_measure, det);
                harness::Record rec;
                rec.set("kind", std::string("benign"));
                rec.set("grain4_score", outcomes[slot].suspect_score, 4);
                rec.set("capacity_bps", 0.0, 1);
                rec.set("samples", outcomes[slot].samples);
                return rec;
              });
  }
  for (std::size_t i = 0; i < n_enforced; ++i) {
    sweep.add("enforced/" + std::to_string(i),
              [&outcomes, payload_bits, window, det, shards, cap_gbps,
               slot = n_attack + n_benign + i](harness::TrialContext& tctx) {
                outcomes[slot] = run_attack(tctx.seed, shards, cap_gbps,
                                            payload_bits, window, det);
                harness::Record rec;
                rec.set("kind", std::string("enforced"));
                rec.set("grain4_score", outcomes[slot].suspect_score, 4);
                rec.set("capacity_bps", outcomes[slot].capacity_bps, 1);
                rec.set("samples", outcomes[slot].samples);
                return rec;
              });
  }
  harness::SweepRunner::Options sopts = ctx.sweep_options();
  sopts.obs = true;     // the streaming sink hangs off the trial hub
  sopts.stream = true;  // ... and its drop counters land in the CSV/JSON
  ctx.run_sweep(sweep, "defense_online_trials", sopts);

  // ---- per-trial summary ------------------------------------------------
  bool all_bounded = true;
  std::uint64_t total_dropped = 0;
  std::printf("%-12s %12s %12s %10s %12s %10s\n", "trial", "grain4", "g2/g3",
              "samples", "capacity_bps", "sink_drop");
  for (std::size_t i = 0; i < total; ++i) {
    const TrafficOutcome& o = outcomes[i];
    const char* kind = i < n_attack            ? "attack"
                       : i < n_attack + n_benign ? "benign"
                                                 : "enforced";
    char label[32];
    std::snprintf(label, sizeof label, "%s/%zu", kind,
                  i < n_attack            ? i
                  : i < n_attack + n_benign ? i - n_attack
                                            : i - n_attack - n_benign);
    std::printf("%-12s %12.4f %8s%s/%s %10llu %12.1f %10llu\n", label,
                o.suspect_score, "", o.grain2 ? "y" : "n",
                o.grain3 ? "y" : "n",
                static_cast<unsigned long long>(o.samples), o.capacity_bps,
                static_cast<unsigned long long>(o.sink_dropped));
    all_bounded = all_bounded && o.bounded;
    total_dropped += o.sink_dropped;
  }

  // ---- ROC: sweep the Grain-IV threshold --------------------------------
  std::vector<double> attack_scores;
  for (std::size_t i = 0; i < n_attack; ++i)
    attack_scores.push_back(outcomes[i].suspect_score);
  std::vector<double> benign_obs;
  for (std::size_t i = n_attack; i < n_attack + n_benign; ++i) {
    for (double s : outcomes[i].benign_scores) benign_obs.push_back(s);
  }
  double cap_free = 0;
  for (std::size_t i = 0; i < n_attack; ++i)
    cap_free += outcomes[i].capacity_bps;
  cap_free /= static_cast<double>(n_attack);
  double cap_enf = 0;
  for (std::size_t i = n_attack + n_benign; i < total; ++i)
    cap_enf += outcomes[i].capacity_bps;
  cap_enf /= static_cast<double>(n_enforced);
  const double enforcement_loss =
      cap_free > 0 ? std::max(0.0, 1.0 - cap_enf / cap_free) : 0.0;

  const std::vector<double> thresholds = {0.05, 0.15, 0.25, 0.35, 0.45,
                                          0.55, 0.65, 0.75, 0.85};
  struct RocPoint {
    double threshold = 0;
    double detection = 0;
    double false_alarm = 0;
    double capacity_loss = 0;
  };
  std::vector<RocPoint> roc(thresholds.size());
  harness::SweepRunner roc_sweep;
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    roc_sweep.add(
        "thr=" + std::to_string(thresholds[i]).substr(0, 4),
        [&roc, &attack_scores, &benign_obs, &thresholds, enforcement_loss,
         cap_free, cap_enf, i](harness::TrialContext&) {
          const double th = thresholds[i];
          const auto frac_over = [th](const std::vector<double>& v) {
            if (v.empty()) return 0.0;
            std::size_t n = 0;
            for (double s : v) n += s > th ? 1 : 0;
            return static_cast<double>(n) / static_cast<double>(v.size());
          };
          RocPoint p;
          p.threshold = th;
          p.detection = frac_over(attack_scores);
          p.false_alarm = frac_over(benign_obs);
          // Expected covert capacity surrendered by the attacker at this
          // operating point: the enforcement haircut, weighted by how often
          // the detector actually catches the sender.
          p.capacity_loss = p.detection * enforcement_loss;
          roc[i] = p;
          harness::Record rec;
          rec.set("threshold", th, 2);
          rec.set("detection_rate", p.detection, 4);
          rec.set("false_alarm_rate", p.false_alarm, 4);
          rec.set("capacity_free_bps", cap_free, 1);
          rec.set("capacity_enforced_bps", cap_enf, 1);
          rec.set("capacity_loss", p.capacity_loss, 4);
          return rec;
        });
  }
  ctx.run_sweep(roc_sweep, "defense_online_roc");

  std::printf("capacity: free=%.1f bps enforced=%.1f bps haircut=%.1f%%\n",
              cap_free, cap_enf, 100.0 * enforcement_loss);
  for (const RocPoint& p : roc) {
    std::printf(
        "roc: threshold=%.2f detection=%.2f false_alarm=%.2f "
        "capacity_loss=%.2f\n",
        p.threshold, p.detection, p.false_alarm, p.capacity_loss);
  }
  // Best zero-false-alarm operating point: the separability contract CI
  // greps for.
  double best_det = 0;
  double best_th = 0;
  for (const RocPoint& p : roc) {
    if (p.false_alarm == 0 && p.detection > best_det) {
      best_det = p.detection;
      best_th = p.threshold;
    }
  }
  if (best_det > 0) {
    std::printf(
        "contract=SEPARABLE threshold=%.2f detection=%.2f false_alarm=0.00\n",
        best_th, best_det);
  } else {
    std::printf("contract=INSEPARABLE\n");
  }

  // ---- bounded-memory run ----------------------------------------------
  const std::uint64_t target = ctx.full ? 1'000'000 : 150'000;
  const BoundedReport rep = run_bounded(ctx.seed, target, det);
  std::printf(
      "bounded_memory: target=%llu consumed=%llu sim_ms=%.1f "
      "footprint_kb=%.1f cap_kb=%.1f sink_published=%llu sink_dropped=%llu "
      "stream_overflow=%llu resource_overflow=%llu tenants_dropped=%llu\n",
      static_cast<unsigned long long>(rep.target),
      static_cast<unsigned long long>(rep.consumed), rep.sim_ms,
      static_cast<double>(rep.footprint) / 1024.0,
      static_cast<double>(rep.footprint_cap) / 1024.0,
      static_cast<unsigned long long>(rep.sink_published),
      static_cast<unsigned long long>(rep.sink_dropped),
      static_cast<unsigned long long>(rep.stream_overflow),
      static_cast<unsigned long long>(rep.resource_overflow),
      static_cast<unsigned long long>(rep.tenants_dropped));
  std::printf("memory=%s trial_sinks_dropped=%llu\n",
              rep.bounded && all_bounded ? "BOUNDED" : "UNBOUNDED",
              static_cast<unsigned long long>(total_dropped));
  return rep.bounded && all_bounded && best_det > 0 ? 0 : 1;
}
