#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "covert/uli_channel.hpp"
#include "revng/flow.hpp"
#include "revng/testbed.hpp"
#include "revng/uli.hpp"
#include "rnic/rnic.hpp"
#include "rnic/translation.hpp"
#include "side/snoop.hpp"

// Tests for the section-VII "hardware partitioning" mitigation and the
// native Grain-I tenant pacing.
namespace ragnar {
namespace {

// Device-wide tuning goes through the RuntimeConfig snapshot; per-tenant
// caps go through the device's ControlPort.
void set_isolation(rnic::Rnic& dev, bool on) {
  rnic::RuntimeConfig cfg = dev.runtime_config();
  cfg.tenant_isolation = on;
  dev.configure(cfg);
}

void set_pacing(rnic::Rnic& dev, double gbps) {
  rnic::RuntimeConfig cfg = dev.runtime_config();
  cfg.tenant_pacing_gbps = gbps;
  dev.configure(cfg);
}

// --- translation-unit partitioning, unit level -----------------------------

struct XlPartitionFixture : public ::testing::Test {
  rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX4);
  void SetUp() override {
    prof.jitter_frac = 0;
    prof.jitter_floor = 0;
    prof.mtt_miss_penalty = 0;
  }
};

TEST_F(XlPartitionFixture, SharedModeLeaksLineHitsAcrossTenants) {
  rnic::TranslationUnit xl(prof, sim::Xoshiro256(1));
  rnic::XlRequest victim{1, 128, 64, true, 2u << 20, /*src=*/1};
  rnic::XlRequest attacker{1, 128, 64, true, 2u << 20, /*src=*/2};
  sim::SimDur svc_warm = 0;
  sim::SimTime t = xl.access(0, victim, nullptr);
  // Attacker probes long after the bank-busy window: still hits the line.
  xl.access(t + sim::us(5), attacker, &svc_warm);

  rnic::TranslationUnit xl2(prof, sim::Xoshiro256(1));
  sim::SimDur svc_cold = 0;
  xl2.access(sim::us(10), attacker, &svc_cold);  // no victim warmed the line
  EXPECT_LT(svc_warm, svc_cold);
}

TEST_F(XlPartitionFixture, PartitionedModeIsolatesLineState) {
  rnic::TranslationUnit xl(prof, sim::Xoshiro256(1));
  xl.set_partitioned(true);
  rnic::XlRequest victim{1, 128, 64, true, 2u << 20, /*src=*/1};
  rnic::XlRequest attacker{1, 128, 64, true, 2u << 20, /*src=*/2};
  sim::SimDur svc_after_victim = 0;
  sim::SimTime t = xl.access(0, victim, nullptr);
  xl.access(t + sim::us(5), attacker, &svc_after_victim);

  rnic::TranslationUnit xl2(prof, sim::Xoshiro256(1));
  xl2.set_partitioned(true);
  sim::SimDur svc_cold = 0;
  xl2.access(sim::us(10), attacker, &svc_cold);
  // The victim's access must not change what the attacker measures.
  EXPECT_EQ(svc_after_victim, svc_cold);
}

TEST_F(XlPartitionFixture, PartitionedModeStillCachesWithinTenant) {
  rnic::TranslationUnit xl(prof, sim::Xoshiro256(1));
  xl.set_partitioned(true);
  rnic::XlRequest req{1, 128, 64, true, 2u << 20, /*src=*/1};
  sim::SimDur first = 0, second = 0;
  sim::SimTime t = xl.access(0, req, &first);
  xl.access(t + sim::us(5), req, &second);
  EXPECT_LT(second, first);  // self line hit still works
}

TEST_F(XlPartitionFixture, PartitionedModeIsolatesBankConflicts) {
  prof.xl_line_hit_bonus = 0;
  rnic::TranslationUnit xl(prof, sim::Xoshiro256(1));
  xl.set_partitioned(true);
  rnic::XlRequest victim{1, 0, 64, true, 2u << 20, /*src=*/1};
  rnic::XlRequest attacker{1, 2048, 64, true, 2u << 20, /*src=*/2};  // same bank
  sim::SimDur svc = 0;
  xl.access(0, victim, nullptr);
  xl.access(1, attacker, &svc);  // immediately after: bank busy, other tenant
  // No cross-tenant conflict penalty in partitioned mode: cost equals the
  // static cost plus the partition overhead.
  const sim::SimDur expected =
      xl.static_read_cost(2048) + prof.xl_partition_overhead;
  EXPECT_EQ(svc, expected);
}

TEST_F(XlPartitionFixture, PartitioningCostsOverheadPerAccess) {
  rnic::TranslationUnit shared(prof, sim::Xoshiro256(1));
  rnic::TranslationUnit part(prof, sim::Xoshiro256(1));
  part.set_partitioned(true);
  rnic::XlRequest req{1, 64, 64, true, 2u << 20, 1};
  sim::SimDur s_shared = 0, s_part = 0;
  shared.access(0, req, &s_shared);
  part.access(0, req, &s_part);
  EXPECT_EQ(s_part, s_shared + prof.xl_partition_overhead);
}

// --- end-to-end: partitioning kills the Grain-III/IV attacks ---------------

TEST(PartitioningEndToEnd, IntraMrChannelDies) {
  auto cfg = covert::UliChannelConfig::best_for(
      rnic::DeviceModel::kCX4, covert::UliChannelKind::kIntraMr, 81);
  cfg.ambient_intensity = 0;
  covert::UliCovertChannel ch(cfg);
  set_isolation(ch.server_device(), true);
  sim::Xoshiro256 rng(82);
  const auto run = ch.transmit(covert::random_bits(96, rng));
  EXPECT_GT(run.error_rate(), 0.25);  // ~chance
}

TEST(PartitioningEndToEnd, InterMrChannelDies) {
  auto cfg = covert::UliChannelConfig::best_for(
      rnic::DeviceModel::kCX4, covert::UliChannelKind::kInterMr, 83);
  cfg.ambient_intensity = 0;
  covert::UliCovertChannel ch(cfg);
  set_isolation(ch.server_device(), true);
  sim::Xoshiro256 rng(84);
  const auto run = ch.transmit(covert::random_bits(96, rng));
  EXPECT_GT(run.error_rate(), 0.25);
}

TEST(PartitioningEndToEnd, SnoopArgminDropsToChance) {
  side::SnoopConfig cfg;
  cfg.seed = 85;
  cfg.sweeps_per_trace = 6;
  side::SnoopAttack attack(cfg);
  // Partition the memory server's translation unit.
  // (The attack holds its own testbed; reach the server through a fresh
  // capture after toggling.)
  set_isolation(attack.server_device(), true);
  std::size_t hits = 0, total = 0;
  for (std::size_t victim : {std::size_t{2}, std::size_t{7}, std::size_t{12}}) {
    hits += side::SnoopAttack::argmin_candidate(cfg,
                                                attack.capture_trace(victim)) ==
            victim;
    ++total;
  }
  EXPECT_LE(hits, 1u);  // at/near chance instead of 3/3
}

// --- Grain-I tenant pacing --------------------------------------------------

TEST(TenantPacing, ContainsABandwidthFlood) {
  revng::Testbed bed(rnic::DeviceModel::kCX4, 86, 2);
  set_pacing(bed.server().device(), 8.0);
  revng::FlowSpec flood;
  flood.opcode = verbs::WrOpcode::kRdmaWrite;
  flood.msg_size = 16384;
  flood.qp_num = 4;
  flood.depth_per_qp = 16;
  flood.duration = sim::ms(1);
  revng::Flow f(bed, 0, flood);
  bed.sched().run_while([&] { return !f.finished(); });
  EXPECT_LT(f.achieved_gbps(), 9.0);  // capped near 8 Gb/s
}

TEST(TenantPacing, FairShareRestoresTheVictim) {
  auto victim_bw_under_flood = [](double pacing_gbps) {
    revng::Testbed bed(rnic::DeviceModel::kCX4, 87, 2);
    if (pacing_gbps > 0)
      set_pacing(bed.server().device(), pacing_gbps);
    revng::FlowSpec flood;
    flood.opcode = verbs::WrOpcode::kRdmaWrite;
    flood.msg_size = 16384;
    flood.qp_num = 4;
    flood.depth_per_qp = 16;
    flood.duration = sim::ms(1);
    revng::FlowSpec victim = flood;
    victim.msg_size = 4096;
    victim.qp_num = 1;
    victim.depth_per_qp = 4;
    revng::Flow attacker(bed, 0, flood);
    revng::Flow v(bed, 1, victim);
    bed.sched().run_while(
        [&] { return !(attacker.finished() && v.finished()); });
    return v.achieved_gbps();
  };
  const double unprotected = victim_bw_under_flood(0);
  const double protected_bw = victim_bw_under_flood(10.0);
  EXPECT_GT(protected_bw, 1.3 * unprotected);
}

TEST(TenantPacing, PerTenantCapOverridesGlobalPacing) {
  // Two tenants flood the server under a 10 Gb/s global pacing cap; tenant 0
  // additionally carries a targeted 2 Gb/s HARMONIC-style throttle.  The
  // per-tenant cap must take precedence for that tenant only, while the
  // other tenant stays on the global cap.
  auto run_floods = [](double cap0_gbps, double* bw0, double* bw1) {
    revng::Testbed bed(rnic::DeviceModel::kCX4, 90, 2);
    rnic::Rnic& dev = bed.server().device();
    set_pacing(dev, 10.0);
    if (cap0_gbps > 0) {
      dev.control().set_tenant_cap(bed.client(0).device().node(), cap0_gbps);
    }
    revng::FlowSpec flood;
    flood.opcode = verbs::WrOpcode::kRdmaWrite;
    flood.msg_size = 16384;
    flood.qp_num = 4;
    flood.depth_per_qp = 16;
    flood.duration = sim::ms(1);
    revng::Flow f0(bed, 0, flood);
    revng::Flow f1(bed, 1, flood);
    bed.sched().run_while([&] { return !(f0.finished() && f1.finished()); });
    *bw0 = f0.achieved_gbps();
    *bw1 = f1.achieved_gbps();
  };

  double capped0 = 0, capped1 = 0;
  run_floods(2.0, &capped0, &capped1);
  EXPECT_LT(capped0, 3.0);  // throttled tenant pinned near its 2 Gb/s cap
  EXPECT_GT(capped1, 6.0);  // the other tenant still gets its global share
  EXPECT_LT(capped1, 11.0);
  EXPECT_GT(capped1, 2.0 * capped0);

  // Lifting the targeted throttle (cap <= 0) returns tenant 0 to the
  // global-pacing regime: both tenants look alike again.
  double lifted0 = 0, lifted1 = 0;
  run_floods(0.0, &lifted0, &lifted1);
  EXPECT_GT(lifted0, 2.0 * capped0);
  EXPECT_LT(std::abs(lifted0 - lifted1), 0.35 * std::max(lifted0, lifted1));
}

TEST(TenantPacing, DoesNotStopTheCovertChannel) {
  // The paper's point about Grain-I defenses: the Kbps-scale channel uses
  // trivial bandwidth, so flow control never binds.
  auto cfg = covert::UliChannelConfig::best_for(
      rnic::DeviceModel::kCX4, covert::UliChannelKind::kIntraMr, 88);
  cfg.ambient_intensity = 0;
  covert::UliCovertChannel ch(cfg);
  set_pacing(ch.server_device(), 10.0);
  sim::Xoshiro256 rng(89);
  const auto run = ch.transmit(covert::random_bits(96, rng));
  EXPECT_LT(run.error_rate(), 0.05);
}

}  // namespace
}  // namespace ragnar
