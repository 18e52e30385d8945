#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/topology.hpp"
#include "obs/obs.hpp"
#include "rnic/device_profile.hpp"
#include "revng/testbed.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "verbs/context.hpp"

namespace ragnar::fabric {
namespace {

// ---------------------------------------------------------------------------
// Harness: a verbs workload over an arbitrary topology, returning the exact
// completion-time sequence (the byte-order observable of the simulator).
// ---------------------------------------------------------------------------

struct Endpoints {
  std::unique_ptr<verbs::Context> src;
  std::unique_ptr<verbs::Context> dst;
  std::unique_ptr<verbs::ProtectionDomain> src_pd, dst_pd;
  std::unique_ptr<verbs::CompletionQueue> src_cq, dst_cq;
  std::vector<std::unique_ptr<verbs::QueuePair>> src_qps, dst_qps;
  std::unique_ptr<verbs::MemoryRegion> src_mr, dst_mr;
};

Endpoints wire(Topology& topo, rnic::NodeId a, rnic::NodeId b,
               std::size_t qp_count) {
  Endpoints e;
  e.src = std::make_unique<verbs::Context>(topo, topo.host(a), "src");
  e.dst = std::make_unique<verbs::Context>(topo, topo.host(b), "dst");
  e.src_pd = e.src->alloc_pd();
  e.dst_pd = e.dst->alloc_pd();
  e.src_cq = e.src->create_cq();
  e.dst_cq = e.dst->create_cq();
  e.src_mr = e.src_pd->register_mr(1u << 20);
  e.dst_mr = e.dst_pd->register_mr(1u << 20);
  for (std::size_t q = 0; q < qp_count; ++q) {
    e.src_qps.push_back(e.src_pd->create_qp(*e.src_cq));
    e.dst_qps.push_back(e.dst_pd->create_qp(*e.dst_cq));
    EXPECT_EQ(e.src_qps.back()->connect(*e.dst_qps.back()),
              verbs::ConnectResult::kOk);
  }
  return e;
}

// Post `ops` READs round-robin across the QPs and collect every completion
// timestamp in arrival order.
std::vector<sim::SimTime> run_reads(sim::Scheduler& sched, Endpoints& e,
                                    std::size_t ops, std::uint32_t bytes) {
  std::vector<sim::SimTime> completions;
  for (std::size_t i = 0; i < ops; ++i) {
    verbs::SendWr wr;
    wr.opcode = verbs::WrOpcode::kRdmaRead;
    wr.local_addr = e.src_mr->addr();
    wr.length = bytes;
    wr.remote_addr = e.dst_mr->addr();
    wr.rkey = e.dst_mr->rkey();
    EXPECT_EQ(e.src_qps[i % e.src_qps.size()]->post_send(wr),
              verbs::PostResult::kOk);
  }
  sched.run_until_idle();
  verbs::Wc wc;
  while (e.src_cq->poll_one(&wc)) {
    EXPECT_EQ(wc.status, rnic::WcStatus::kSuccess);
    completions.push_back(wc.completed_at);
  }
  return completions;
}

std::unique_ptr<Topology> one_switch_topology(sim::Scheduler& sched,
                                              std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  Topology::Builder b(sched);
  const auto h0 = b.add_host(prof, rng.fork());
  const auto h1 = b.add_host(prof, rng.fork());
  b.add_switch({});
  b.link(NodeRef::host(h0), NodeRef::sw(0), LinkSpec::symmetric(sim::ns(250)))
      .link(NodeRef::host(h1), NodeRef::sw(0),
            LinkSpec::symmetric(sim::ns(250)));
  return b.build();
}

// Two racks, two parallel 25 Gb/s uplinks (the ECMP group).
std::unique_ptr<Topology> two_switch_ecmp_topology(sim::Scheduler& sched,
                                                   std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  Topology::Builder b(sched);
  const auto h0 = b.add_host(prof, rng.fork());
  const auto h1 = b.add_host(prof, rng.fork());
  const auto tor0 = b.add_switch({});
  const auto tor1 = b.add_switch({});
  b.link(NodeRef::host(h0), NodeRef::sw(tor0),
         LinkSpec::symmetric(sim::ns(250)))
      .link(NodeRef::host(h1), NodeRef::sw(tor1),
            LinkSpec::symmetric(sim::ns(250)))
      .link(NodeRef::sw(tor0), NodeRef::sw(tor1),
            LinkSpec::symmetric(sim::ns(500), 25.0))
      .link(NodeRef::sw(tor0), NodeRef::sw(tor1),
            LinkSpec::symmetric(sim::ns(500), 25.0));
  return b.build();
}

// ---------------------------------------------------------------------------
// Determinism: same seed => byte-identical event order
// ---------------------------------------------------------------------------

TEST(TopologyDeterminism, OneSwitchReplaysIdentically) {
  std::vector<sim::SimTime> runs[2];
  for (auto& out : runs) {
    sim::Scheduler sched;
    auto topo = one_switch_topology(sched, 42);
    Endpoints e = wire(*topo, 0, 1, 4);
    out = run_reads(sched, e, 64, 4096);
  }
  ASSERT_EQ(runs[0].size(), 64u);
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(TopologyDeterminism, TwoSwitchEcmpReplaysIdentically) {
  std::vector<sim::SimTime> runs[2];
  std::uint64_t uplink_bytes[2][2] = {};
  for (int r = 0; r < 2; ++r) {
    sim::Scheduler sched;
    auto topo = two_switch_ecmp_topology(sched, 42);
    Endpoints e = wire(*topo, 0, 1, 8);
    runs[r] = run_reads(sched, e, 64, 4096);
    const std::vector<LinkId> uplinks =
        topo->links_between(NodeRef::sw(0), NodeRef::sw(1));
    ASSERT_EQ(uplinks.size(), 2u);
    uplink_bytes[r][0] = topo->link_bytes(uplinks[0]);
    uplink_bytes[r][1] = topo->link_bytes(uplinks[1]);
  }
  ASSERT_EQ(runs[0].size(), 64u);
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(uplink_bytes[0][0], uplink_bytes[1][0]);
  EXPECT_EQ(uplink_bytes[0][1], uplink_bytes[1][1]);
}

TEST(TopologyDeterminism, EcmpSpreadsFlowsAcrossParallelUplinks) {
  sim::Scheduler sched;
  auto topo = two_switch_ecmp_topology(sched, 7);
  Endpoints e = wire(*topo, 0, 1, 8);
  run_reads(sched, e, 64, 4096);
  const std::vector<LinkId> uplinks =
      topo->links_between(NodeRef::sw(0), NodeRef::sw(1));
  ASSERT_EQ(uplinks.size(), 2u);
  // With 8 distinct flows (QPs) the hash must not collapse onto one uplink.
  EXPECT_GT(topo->link_bytes(uplinks[0]), 0u);
  EXPECT_GT(topo->link_bytes(uplinks[1]), 0u);
}

// ---------------------------------------------------------------------------
// Shared-buffer pool: PFC watermarks and tail drop
// ---------------------------------------------------------------------------

// Inject raw wire messages so pool arithmetic is exact.  The bogus rkey
// makes the responder NAK without touching memory; the NAK replies cross
// the switch long after the assertions run.
rnic::InFlightMsg synthetic_write(std::uint32_t bytes) {
  rnic::InFlightMsg msg;
  msg.op.op = rnic::Opcode::kWrite;
  msg.op.size = bytes;
  msg.op.rkey = 0xdead;  // unmapped: responder NAKs, no data touched
  msg.op.src_node = 0;
  msg.op.dst_node = 1;
  msg.op.src_qpn = 1;
  msg.wire_bytes = bytes;
  return msg;
}

std::unique_ptr<Topology> pool_test_topology(sim::Scheduler& sched,
                                             const SwitchSpec& spec) {
  sim::Xoshiro256 rng(3);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  Topology::Builder b(sched);
  const auto h0 = b.add_host(prof, rng.fork());
  const auto h1 = b.add_host(prof, rng.fork());
  b.add_switch(spec);
  // 1 Gb/s egress: 1000 B serialize in 8 us, so the pool drains slowly
  // enough to assert against intermediate states.
  b.link(NodeRef::host(h0), NodeRef::sw(0), LinkSpec::symmetric(sim::ns(250)))
      .link(NodeRef::host(h1), NodeRef::sw(0),
            LinkSpec::symmetric(sim::ns(250), 1.0));
  return b.build();
}

TEST(SwitchPool, PauseAssertsExactlyAtXoffAndReleasesOnDrain) {
  SwitchSpec spec;
  spec.buffer_bytes = 100000;
  spec.pfc_xoff_bytes = 5000;
  spec.pfc_xon_bytes = 2000;
  sim::Scheduler sched;
  auto topo = pool_test_topology(sched, spec);

  // Four 1000 B messages: pool at 4000 < xoff — no pause.
  for (int i = 0; i < 4; ++i) topo->transmit(synthetic_write(1000), 0);
  sched.run_until(sim::ns(600));
  EXPECT_EQ(topo->buffer_occupancy(0), 4000u);
  EXPECT_FALSE(topo->pause_asserted(0));
  EXPECT_EQ(topo->switch_stats(0).pause_events, 0u);

  // The fifth crossing 5000 >= xoff must assert pause on that enqueue.
  topo->transmit(synthetic_write(1000), sim::ns(100));
  sched.run_until(sim::ns(700));
  EXPECT_EQ(topo->buffer_occupancy(0), 5000u);
  EXPECT_TRUE(topo->pause_asserted(0));
  EXPECT_EQ(topo->switch_stats(0).pause_events, 1u);

  // Pause holds until the pool drains below xon (three messages out at
  // 8 us each), then releases; eventually the pool is empty.
  sched.run_until(sim::us(20));
  EXPECT_TRUE(topo->pause_asserted(0));
  sched.run_until(sim::us(35));
  EXPECT_FALSE(topo->pause_asserted(0));
  EXPECT_GT(topo->switch_stats(0).paused_total, 0);
  sched.run_until(sim::us(60));
  EXPECT_EQ(topo->buffer_occupancy(0), 0u);
  EXPECT_EQ(topo->switch_stats(0).peak_buffer_bytes, 5000u);
}

TEST(SwitchPool, OverflowTailDropsWhenPfcDisabled) {
  SwitchSpec spec;
  spec.buffer_bytes = 3000;
  spec.pfc_xoff_bytes = 0;  // PFC off: tail-drop only
  sim::Scheduler sched;
  auto topo = pool_test_topology(sched, spec);

  for (int i = 0; i < 5; ++i) topo->transmit(synthetic_write(1000), 0);
  sched.run_until(sim::ns(600));
  EXPECT_EQ(topo->buffer_occupancy(0), 3000u);
  EXPECT_EQ(topo->switch_stats(0).drops, 2u);
  EXPECT_EQ(topo->switch_stats(0).pause_events, 0u);
  EXPECT_FALSE(topo->pause_asserted(0));
}

// ---------------------------------------------------------------------------
// Facade equivalence: revng::Testbed's direct host mesh replays the
// pre-topology point-to-point fabric (the suite keeps the name of the
// facade class that used to build it).
// ---------------------------------------------------------------------------

// Pinned timestamps from the pre-topology point-to-point fabric: the
// testbed's direct mesh must keep replaying the legacy event sequence
// bit-for-bit.  (These values were captured from the seed implementation,
// whose scenario goldens the testbed reproduces byte-identically.)
TEST(FacadeEquivalence, LegacyGoldenTimestampsStillHold) {
  revng::Testbed bed(rnic::DeviceModel::kCX5, /*seed=*/7, /*clients=*/1);
  auto conn = bed.connect(0, /*qp_count=*/1, /*max_send_wr=*/16, /*tc=*/0);
  auto mr = conn.server_pd->register_mr(1u << 16);
  std::vector<sim::SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    verbs::SendWr wr;
    wr.opcode = verbs::WrOpcode::kRdmaRead;
    wr.local_addr = conn.local_addr();
    wr.length = 4096;
    wr.remote_addr = mr->addr();
    wr.rkey = mr->rkey();
    ASSERT_EQ(conn.qp().post_send(wr), verbs::PostResult::kOk);
  }
  bed.sched().run_until_idle();
  verbs::Wc wc;
  while (conn.cq().poll_one(&wc)) completions.push_back(wc.completed_at);
  ASSERT_EQ(completions.size(), 4u);
  const std::vector<sim::SimTime> golden = {4493574, 5189174, 5884774,
                                            6580374};
  EXPECT_EQ(completions, golden);
}

// The testbed's fabric is a pairwise direct mesh: no switches, one direct
// link per host pair.
TEST(FacadeEquivalence, FacadeShapeIsPairwiseDirect) {
  revng::Testbed bed(rnic::DeviceModel::kCX5, /*seed=*/1, /*clients=*/3);
  Topology& topo = bed.fabric();
  const std::size_t n = topo.host_count();
  EXPECT_EQ(n, 4u);  // server + 3 clients
  EXPECT_EQ(topo.switch_count(), 0u);
  EXPECT_EQ(topo.link_count(), n * (n - 1) / 2);
  for (rnic::NodeId a = 0; a < n; ++a) {
    for (rnic::NodeId b = a + 1; b < n; ++b) {
      EXPECT_NE(topo.link_between(NodeRef::host(a), NodeRef::host(b)), kNoLink)
          << a << "-" << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics under the windowed engine: every shard records into a private
// registry that is merged into the trial hub and cleared after each run, so
// a hook site's cached instrument must re-resolve run after run.  The merged
// snapshot may not depend on the shard count.
// ---------------------------------------------------------------------------

struct MetricsRun {
  std::vector<std::pair<std::string, std::string>> cells;
  SwitchStats tor0;
  SwitchStats tor1;
};

MetricsRun run_instrumented_fabric(std::uint32_t shards) {
  obs::Hub hub;
  obs::ScopedHub scoped(&hub);
  sim::Engine eng(sim::Engine::Options{shards, sim::kMillisecond});
  const auto on = [shards](std::uint32_t i) {
    return static_cast<sim::ShardId>(i % shards);
  };
  sim::Xoshiro256 rng(7);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  Topology::Builder b(eng);
  std::vector<rnic::NodeId> h;
  for (std::uint32_t i = 0; i < 4; ++i) {
    h.push_back(b.add_host(prof, rng.fork(), on(i)));
  }
  SwitchSpec pfc;  // tor0: small pool with PFC, pauses under the incast
  pfc.name = "tor0";
  pfc.buffer_bytes = 256u << 10;
  pfc.pfc_xoff_bytes = 32u << 10;
  pfc.pfc_xon_bytes = 16u << 10;
  SwitchSpec lossy;  // tor1: PFC off, tail-drops on overflow
  lossy.name = "tor1";
  lossy.buffer_bytes = 24u << 10;
  lossy.pfc_xoff_bytes = 0;
  const auto tor0 = b.add_switch(pfc, on(0));
  const auto tor1 = b.add_switch(lossy, on(1));
  const auto access = LinkSpec::symmetric(sim::ns(250), 100.0);
  b.link(NodeRef::host(h[0]), NodeRef::sw(tor0), access)
      .link(NodeRef::host(h[1]), NodeRef::sw(tor0), access)
      .link(NodeRef::host(h[2]), NodeRef::sw(tor1), access)
      .link(NodeRef::host(h[3]), NodeRef::sw(tor1), access)
      .link(NodeRef::sw(tor0), NodeRef::sw(tor1),
            LinkSpec::symmetric(sim::ns(500), 25.0));
  auto topo = b.build();
  faults::FaultPlan plan = faults::FaultPlan::uniform_loss(0.02, 11);
  plan.per_link_rng = true;  // verdicts are shard-count invariant
  topo->set_fault_plan(plan);

  std::vector<std::unique_ptr<verbs::Context>> ctx;
  for (rnic::NodeId n : h) {
    ctx.push_back(std::make_unique<verbs::Context>(*topo, topo->host(n),
                                                   "h" + std::to_string(n)));
  }
  verbs::QpConfig qcfg;
  qcfg.timeout = sim::us(40);  // lost writes retransmit
  qcfg.retry_cnt = 7;
  struct Conn {
    std::unique_ptr<verbs::ProtectionDomain> spd, dpd;
    std::unique_ptr<verbs::CompletionQueue> scq, dcq;
    std::unique_ptr<verbs::QueuePair> sqp, dqp;
    std::unique_ptr<verbs::MemoryRegion> smr, dmr;
  };
  const auto connect = [&](std::size_t src, std::size_t dst) {
    Conn c;
    c.spd = ctx[src]->alloc_pd();
    c.dpd = ctx[dst]->alloc_pd();
    c.scq = ctx[src]->create_cq();
    c.dcq = ctx[dst]->create_cq();
    c.smr = c.spd->register_mr(1u << 16);
    c.dmr = c.dpd->register_mr(1u << 16);
    c.sqp = c.spd->create_qp(*c.scq, qcfg);
    c.dqp = c.dpd->create_qp(*c.dcq, qcfg);
    EXPECT_EQ(c.sqp->connect(*c.dqp), verbs::ConnectResult::kOk);
    return c;
  };
  // Incast through tor0's uplink, and the reverse direction through tor1's
  // undersized pool; READs and WRITEs so several opcodes are counted.
  std::vector<Conn> conns;
  conns.push_back(connect(0, 2));
  conns.push_back(connect(1, 3));
  conns.push_back(connect(2, 0));
  conns.push_back(connect(3, 1));
  for (std::size_t c = 0; c < conns.size(); ++c) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      verbs::SendWr wr;
      wr.wr_id = i;
      wr.opcode = (c + i) % 3 == 0 ? verbs::WrOpcode::kRdmaRead
                                   : verbs::WrOpcode::kRdmaWrite;
      wr.local_addr = conns[c].smr->addr();
      wr.length = 4096;
      wr.remote_addr = conns[c].dmr->addr();
      wr.rkey = conns[c].dmr->rkey();
      EXPECT_EQ(conns[c].sqp->post_send(wr), verbs::PostResult::kOk);
    }
  }
  // A bad rkey fails the last QP with a remote access error.
  verbs::SendWr bad;
  bad.opcode = verbs::WrOpcode::kRdmaWrite;
  bad.local_addr = conns.back().smr->addr();
  bad.length = 64;
  bad.remote_addr = conns.back().dmr->addr();
  bad.rkey = conns.back().dmr->rkey() + 1;
  EXPECT_EQ(conns.back().sqp->post_send(bad), verbs::PostResult::kOk);

  // Several runs: the shard registries are merged and cleared after each.
  eng.run_until(sim::us(20));
  eng.run_until(sim::us(200));
  eng.run_until(sim::ms(20));

  MetricsRun out;
  for (const obs::MetricCell& c : hub.metrics().snapshot().cells) {
    out.cells.emplace_back(c.column, c.value);
  }
  out.tor0 = topo->switch_stats(tor0);
  out.tor1 = topo->switch_stats(tor1);
  return out;
}

const std::string* cell(const MetricsRun& run, const std::string& column) {
  for (const auto& [k, v] : run.cells) {
    if (k == column) return &v;
  }
  return nullptr;
}

TEST(EngineMetrics, HubSnapshotIsShardCountInvariant) {
  const MetricsRun one = run_instrumented_fabric(1);
  // The workload reaches every fabric and verbs hook, and the counters
  // agree with the model's own obs-free accounting.
  for (const char* column : {"fabric.delivered",
                             "fabric.wire_bytes",
                             "fabric.verdicts{verdict=drop}",
                             "fabric.verdicts{verdict=deliver}",
                             "fabric.switch.buffer_bytes{switch=tor0}",
                             "fabric.pfc.pause_ps{switch=tor0}",
                             "verbs.completions{op=READ}",
                             "verbs.completions{op=WRITE}",
                             "verbs.op_ns{op=WRITE}.count",
                             "verbs.errors{status=REMOTE_ACCESS_ERROR}",
                             "rnic.tx{op=WRITE,tc=0}",
                             "rnic.stage.msgs{stage=tx_arbiter}"}) {
    EXPECT_NE(cell(one, column), nullptr) << column;
  }
  ASSERT_GT(one.tor0.pause_events, 0u);
  ASSERT_GT(one.tor1.drops, 0u);
  const std::string* pauses =
      cell(one, "fabric.pfc.pause_events{switch=tor0}");
  ASSERT_NE(pauses, nullptr);
  EXPECT_EQ(*pauses, std::to_string(one.tor0.pause_events));
  const std::string* drops = cell(one, "fabric.switch.drops{switch=tor1}");
  ASSERT_NE(drops, nullptr);
  EXPECT_EQ(*drops, std::to_string(one.tor1.drops));

  for (std::uint32_t shards : {2u, 4u}) {
    const MetricsRun many = run_instrumented_fabric(shards);
    EXPECT_EQ(many.cells, one.cells) << shards << " shards";
  }
}

}  // namespace
}  // namespace ragnar::fabric
