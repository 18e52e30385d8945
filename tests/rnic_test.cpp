#include <gtest/gtest.h>

#include <vector>

#include "rnic/counters.hpp"
#include "rnic/device_profile.hpp"
#include "rnic/memory_table.hpp"
#include "rnic/rnic.hpp"
#include "rnic/translation.hpp"
#include "sim/coro.hpp"
#include "sim/random.hpp"

namespace ragnar::rnic {
namespace {

class ProfileTest : public ::testing::TestWithParam<DeviceModel> {};

TEST_P(ProfileTest, Sane) {
  const DeviceProfile p = make_profile(GetParam());
  EXPECT_GT(p.link_gbps, 0);
  EXPECT_GT(p.pcie_gbps, 0);
  EXPECT_GT(p.tx_arb_cycle, 0u);
  EXPECT_GT(p.rx_dispatch_cycle, 0u);
  EXPECT_GT(p.xl_base, 0u);
  EXPECT_GT(p.resp_gen_ack, 0u);
  EXPECT_EQ(p.xl_banks * 64u, 2048u);  // the 2048 B periodicity
  EXPECT_GE(p.mtu, 1024u);
  EXPECT_GT(p.rx_dispatch_lanes, 1u);
}

TEST_P(ProfileTest, NameMatchesModel) {
  const DeviceProfile p = make_profile(GetParam());
  EXPECT_EQ(p.name, device_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllDevices, ProfileTest,
                         ::testing::Values(DeviceModel::kCX4, DeviceModel::kCX5,
                                           DeviceModel::kCX6));

TEST(Profiles, SpeedOrdering) {
  // Table III: CX-4 25G < CX-5 100G < CX-6 200G, and CX-6 gets PCIe4 x16.
  const auto c4 = make_profile(DeviceModel::kCX4);
  const auto c5 = make_profile(DeviceModel::kCX5);
  const auto c6 = make_profile(DeviceModel::kCX6);
  EXPECT_LT(c4.link_gbps, c5.link_gbps);
  EXPECT_LT(c5.link_gbps, c6.link_gbps);
  EXPECT_GT(c6.pcie_gbps, c5.pcie_gbps);
  // Faster silicon: smaller cycles down the generations.
  EXPECT_GT(c4.xl_base, c5.xl_base);
  EXPECT_GT(c5.xl_base, c6.xl_base);
}

// --- Translation unit: Key Finding 4 properties --------------------------

struct XlFixture {
  DeviceProfile prof = make_profile(DeviceModel::kCX4);
  XlFixture() {
    prof.jitter_frac = 0;  // deterministic costs for property checks
    prof.jitter_floor = 0;
  }
};

TEST(Translation, StaticCostAlignedIsCheapest) {
  XlFixture f;
  TranslationUnit xl(f.prof, sim::Xoshiro256(1));
  // Within one 64 B line, the 64 B-aligned address is the cheapest and a
  // non-8 B-aligned address is the most expensive.
  const auto aligned = xl.static_read_cost(0);
  const auto mis8 = xl.static_read_cost(3);
  const auto mis64 = xl.static_read_cost(8);
  EXPECT_LT(aligned, mis64);
  EXPECT_LT(mis64, mis8);
}

TEST(Translation, StaticCost8BytePeriodicity) {
  XlFixture f;
  TranslationUnit xl(f.prof, sim::Xoshiro256(1));
  // Offsets with identical (mod 8, mod 64, bank) structure cost the same.
  for (std::uint64_t base : {0ull, 2048ull, 4096ull}) {
    EXPECT_EQ(xl.static_read_cost(base + 8), xl.static_read_cost(base + 16));
    EXPECT_EQ(xl.static_read_cost(base + 1), xl.static_read_cost(base + 9));
  }
}

TEST(Translation, StaticCost2048Periodicity) {
  XlFixture f;
  TranslationUnit xl(f.prof, sim::Xoshiro256(1));
  for (std::uint64_t off = 0; off < 2048; off += 64) {
    EXPECT_EQ(xl.static_read_cost(off), xl.static_read_cost(off + 2048));
  }
}

TEST(Translation, BankGradientGrowsAcrossWindow) {
  XlFixture f;
  TranslationUnit xl(f.prof, sim::Xoshiro256(1));
  // Later banks in the 2048 B window decode slower (sawtooth).
  EXPECT_LT(xl.static_read_cost(0), xl.static_read_cost(31 * 64));
}

TEST(Translation, MrSwitchPenalty) {
  XlFixture f;
  f.prof.mtt_miss_penalty = 0;  // isolate the MR-context effect
  TranslationUnit xl(f.prof, sim::Xoshiro256(1));
  XlRequest a{/*mr_id=*/1, /*offset=*/0, 64, true, 2u << 20};
  XlRequest b{/*mr_id=*/2, /*offset=*/4096, 64, true, 2u << 20};

  // Same-MR ping-pong between two lines far apart.
  sim::SimDur same_total = 0, diff_total = 0, svc = 0;
  XlRequest a2 = a;
  a2.offset = 4096;
  sim::SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    t = xl.access(t, i % 2 ? a : a2, &svc);
    same_total += svc;
  }
  TranslationUnit xl2(f.prof, sim::Xoshiro256(1));
  t = 0;
  for (int i = 0; i < 200; ++i) {
    t = xl2.access(t, i % 2 ? a : b, &svc);
    diff_total += svc;
  }
  EXPECT_GT(diff_total, same_total);
}

TEST(Translation, LineCacheHitIsFaster) {
  XlFixture f;
  f.prof.mtt_miss_penalty = 0;
  TranslationUnit xl(f.prof, sim::Xoshiro256(1));
  XlRequest r{1, 0, 64, true, 2u << 20};
  sim::SimDur first = 0, second = 0;
  sim::SimTime t = xl.access(sim::us(100), r, &first);
  // Far enough later that the bank-busy window has passed.
  xl.access(t + sim::us(10), r, &second);
  EXPECT_LT(second, first);
}

TEST(Translation, BankConflictPenalty) {
  XlFixture f;
  f.prof.mtt_miss_penalty = 0;
  f.prof.xl_line_hit_bonus = 0;
  TranslationUnit xl(f.prof, sim::Xoshiro256(1));
  XlRequest a{1, 0, 64, true, 2u << 20};
  XlRequest conflicting{1, 2048, 64, true, 2u << 20};  // same bank (0)
  XlRequest other{1, 64, 64, true, 2u << 20};          // different bank
  sim::SimDur svc_conflict = 0, svc_other = 0;

  xl.access(0, a, nullptr);
  xl.access(1, conflicting, &svc_conflict);  // immediately after: bank busy

  TranslationUnit xl2(f.prof, sim::Xoshiro256(1));
  xl2.access(0, a, nullptr);
  xl2.access(1, other, &svc_other);
  EXPECT_GT(svc_conflict, svc_other);
}

TEST(Translation, WritePathOffsetIndependent) {
  XlFixture f;
  f.prof.mtt_miss_penalty = 0;
  TranslationUnit xl(f.prof, sim::Xoshiro256(1));
  sim::SimDur s1 = 0, s2 = 0;
  XlRequest w1{1, 3, 64, false, 2u << 20};     // ugly offset
  XlRequest w2{1, 2048, 64, false, 2u << 20};  // aligned offset
  xl.access(0, w1, &s1);
  xl.access(sim::us(1), w2, &s2);
  EXPECT_EQ(s1, s2);  // footnote 9: no WRITE offset effect
}

TEST(Translation, MttMissPenaltyAndCaching) {
  XlFixture f;
  TranslationUnit xl(f.prof, sim::Xoshiro256(1));
  XlRequest r{1, 0, 64, true, 4096};
  sim::SimDur miss = 0, hit = 0;
  sim::SimTime t = xl.access(sim::us(100), r, &miss);
  EXPECT_EQ(xl.mtt_misses(), 1u);
  xl.access(t + sim::us(50), r, &hit);
  EXPECT_EQ(xl.mtt_misses(), 1u);  // cached now
  EXPECT_GT(miss, hit);
  EXPECT_TRUE(xl.mtt_lookup_would_hit(1, 0, 4096));
  xl.mtt_flush();
  EXPECT_FALSE(xl.mtt_lookup_would_hit(1, 0, 4096));
}

TEST(Translation, HugePagesQuietMtt) {
  XlFixture f;
  TranslationUnit xl(f.prof, sim::Xoshiro256(1));
  // Sweep 1 MB with 2 MB pages: one page, one miss.
  XlRequest r{1, 0, 64, true, 2u << 20};
  sim::SimTime t = 0;
  for (std::uint64_t off = 0; off < (1u << 20); off += 4096) {
    r.offset = off;
    t = xl.access(t, r, nullptr);
  }
  EXPECT_EQ(xl.mtt_misses(), 1u);
}

// --- MemoryTable protection ------------------------------------------------

TEST(MemoryTable, BoundsAndPermissions) {
  MemoryTable mt;
  std::uint8_t buf[128];
  MrEntry e;
  e.rkey = 7;
  e.mr_id = 1;
  e.base = 0x1000;
  e.length = 128;
  e.allow_read = true;
  e.allow_write = false;
  e.allow_atomic = false;
  e.data = buf;
  mt.register_mr(e);

  const MrEntry* out = nullptr;
  EXPECT_EQ(mt.check(7, 0x1000, 64, Opcode::kRead, &out), WcStatus::kSuccess);
  EXPECT_NE(out, nullptr);
  // Unknown rkey.
  EXPECT_EQ(mt.check(8, 0x1000, 64, Opcode::kRead, &out),
            WcStatus::kRemoteAccessError);
  // Out of bounds.
  EXPECT_EQ(mt.check(7, 0x1000 + 100, 64, Opcode::kRead, &out),
            WcStatus::kRemoteAccessError);
  EXPECT_EQ(mt.check(7, 0xFFF, 4, Opcode::kRead, &out),
            WcStatus::kRemoteAccessError);
  // Permission denied.
  EXPECT_EQ(mt.check(7, 0x1000, 64, Opcode::kWrite, &out),
            WcStatus::kRemoteAccessError);
  EXPECT_EQ(mt.check(7, 0x1000, 8, Opcode::kFetchAdd, &out),
            WcStatus::kRemoteAccessError);
}

TEST(MemoryTable, AtomicAlignment) {
  MemoryTable mt;
  std::uint8_t buf[64];
  MrEntry e;
  e.rkey = 1;
  e.base = 0;
  e.length = 64;
  e.data = buf;
  mt.register_mr(e);
  EXPECT_EQ(mt.check(1, 0, 8, Opcode::kFetchAdd, nullptr), WcStatus::kSuccess);
  EXPECT_EQ(mt.check(1, 4, 8, Opcode::kCmpSwap, nullptr),
            WcStatus::kRemoteInvalidRequest);
  EXPECT_EQ(mt.check(1, 0, 16, Opcode::kFetchAdd, nullptr),
            WcStatus::kRemoteInvalidRequest);
}

TEST(MemoryTable, Deregister) {
  MemoryTable mt;
  std::uint8_t buf[64];
  MrEntry e;
  e.rkey = 9;
  e.base = 0;
  e.length = 64;
  e.data = buf;
  mt.register_mr(e);
  EXPECT_EQ(mt.size(), 1u);
  mt.deregister_mr(9);
  EXPECT_EQ(mt.size(), 0u);
  EXPECT_EQ(mt.check(9, 0, 8, Opcode::kRead, nullptr),
            WcStatus::kRemoteAccessError);
}

// --- Counters ----------------------------------------------------------------

TEST(Counters, Accumulate) {
  PortCounters c;
  c.count_tx(0, Opcode::kWrite, 1000, 2);
  c.count_rx(1, Opcode::kRead, 500, 1);
  c.count_tx_raw(0, 78, 1);
  EXPECT_EQ(c.tc[0].tx_bytes, 1078u);
  EXPECT_EQ(c.tc[0].tx_pkts, 3u);
  EXPECT_EQ(c.tc[1].rx_bytes, 500u);
  EXPECT_EQ(c.tx_msgs_by_opcode[static_cast<int>(Opcode::kWrite)], 1u);
  EXPECT_EQ(c.rx_msgs_by_opcode[static_cast<int>(Opcode::kRead)], 1u);
  EXPECT_EQ(c.tx_msgs_total, 1u);  // raw replies are not new operations
  EXPECT_EQ(c.rx_bytes_total(), 500u);
  EXPECT_EQ(c.tx_bytes_total(), 1078u);
}

// --- RuntimeConfig: declarative tuning API -------------------------------

struct RnicFixture {
  sim::Scheduler sched;
  Rnic dev{sched, make_profile(DeviceModel::kCX5), /*node=*/1,
           sim::Xoshiro256(99)};
};

TEST(RuntimeConfigTest, ConfigureRoundTripsThroughRuntimeConfig) {
  RnicFixture fx;
  RuntimeConfig cfg;
  cfg.responder_noise = sim::ns(120);
  cfg.tenant_isolation = true;
  cfg.tenant_pacing_gbps = 25.0;
  cfg.ets.weight_pct.fill(0.0);
  cfg.ets.weight_pct[0] = 70.0;
  cfg.ets.weight_pct[1] = 30.0;
  fx.dev.configure(cfg);

  // Field-for-field through the snapshot, and the live stages agree.
  const RuntimeConfig snap = fx.dev.runtime_config();
  EXPECT_EQ(snap.responder_noise, sim::ns(120));
  EXPECT_TRUE(snap.tenant_isolation);
  EXPECT_DOUBLE_EQ(snap.tenant_pacing_gbps, 25.0);
  EXPECT_EQ(snap.ets.weight_pct, cfg.ets.weight_pct);
  const ControlSnapshot live = fx.dev.control().snapshot();
  EXPECT_DOUBLE_EQ(live.tenant_pacing_gbps, 25.0);
  EXPECT_TRUE(live.tdm);
  EXPECT_DOUBLE_EQ(fx.dev.ets().weight_pct[0], 70.0);
  EXPECT_DOUBLE_EQ(fx.dev.ets().weight_pct[1], 30.0);

  // configure(runtime_config()) is a no-op.
  fx.dev.configure(snap);
  const RuntimeConfig again = fx.dev.runtime_config();
  EXPECT_EQ(again.responder_noise, snap.responder_noise);
  EXPECT_EQ(again.tenant_isolation, snap.tenant_isolation);
  EXPECT_DOUBLE_EQ(again.tenant_pacing_gbps, snap.tenant_pacing_gbps);
  EXPECT_EQ(again.ets.weight_pct, snap.ets.weight_pct);

  // Per-tenant caps are written only through the control port (a cap <= 0
  // is a lift), and configure() leaves them as they are.
  fx.dev.control().set_tenant_cap(2, 5.0);
  fx.dev.control().set_tenant_cap(7, 0.5);
  fx.dev.control().set_tenant_cap(9, 0.0);
  fx.dev.configure(RuntimeConfig{});
  const ControlSnapshot caps = fx.dev.control().snapshot();
  ASSERT_EQ(caps.tenant_caps.size(), 2u);
  EXPECT_DOUBLE_EQ(caps.cap_for(2), 5.0);
  EXPECT_DOUBLE_EQ(caps.cap_for(7), 0.5);
  EXPECT_DOUBLE_EQ(caps.cap_for(9), 0.0);
  EXPECT_DOUBLE_EQ(caps.tenant_pacing_gbps, 0.0);
}

TEST(RuntimeConfigTest, ReadModifyWriteTouchesOnlyChangedKnobs) {
  RnicFixture fx;
  fx.dev.control().set_tenant_cap(4, 2.5);
  RuntimeConfig cfg = fx.dev.runtime_config();
  cfg.responder_noise = sim::ns(40);
  cfg.tenant_isolation = true;
  cfg.tenant_pacing_gbps = 10.0;
  fx.dev.configure(cfg);

  RuntimeConfig snap = fx.dev.runtime_config();
  EXPECT_EQ(snap.responder_noise, sim::ns(40));
  EXPECT_TRUE(snap.tenant_isolation);
  EXPECT_DOUBLE_EQ(snap.tenant_pacing_gbps, 10.0);

  // Read-modify-write of the snapshot touches only the changed knob.
  snap.tenant_pacing_gbps = 0.0;
  fx.dev.configure(snap);
  const RuntimeConfig after = fx.dev.runtime_config();
  EXPECT_EQ(after.responder_noise, sim::ns(40));
  EXPECT_TRUE(after.tenant_isolation);
  EXPECT_DOUBLE_EQ(after.tenant_pacing_gbps, 0.0);
  EXPECT_DOUBLE_EQ(fx.dev.tenant_cap_gbps(4), 2.5);

  // cap <= 0 lifts the throttle.
  fx.dev.control().set_tenant_cap(4, 0.0);
  EXPECT_TRUE(fx.dev.control().snapshot().tenant_caps.empty());
}

TEST(DecayedUtilTest, RisesAndDecays) {
  pipeline::DecayedUtil u(sim::us(10));
  EXPECT_DOUBLE_EQ(u.value(0), 0.0);
  u.add(0, sim::us(5));
  EXPECT_NEAR(u.value(0), 0.5, 1e-9);
  EXPECT_NEAR(u.value(sim::us(2)), 0.3, 1e-9);
  EXPECT_NEAR(u.value(sim::us(100)), 0.0, 1e-9);
}

TEST(DecayedUtilTest, SaturatesAtOne) {
  pipeline::DecayedUtil u(sim::us(10));
  for (int i = 0; i < 10; ++i) u.add(0, sim::us(10));
  EXPECT_NEAR(u.value(0), 1.0, 1e-9);
}

}  // namespace
}  // namespace ragnar::rnic
