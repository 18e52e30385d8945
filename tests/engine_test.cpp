#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/harness.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

// The sim::Engine facade contract (docs/ENGINE.md): legacy mode is
// event-for-event identical to a raw Scheduler; windowed mode executes the
// same event set for any shard count, exchanging cross-shard events through
// (at, origin)-ordered mailboxes, each window's shards running in order on
// the calling thread.
namespace ragnar::sim {
namespace {

using EventLog = std::vector<std::pair<SimTime, int>>;

// A small self-scheduling program driven against any Scheduler.
void seed_program(Scheduler& s, EventLog* log) {
  s.at(us(10), [&s, log] {
    log->push_back({s.now(), 1});
    s.at(s.now() + us(5), [&s, log] { log->push_back({s.now(), 2}); });
  });
  s.at(us(10), [&s, log] { log->push_back({s.now(), 3}); });
  s.at(us(40), [&s, log] { log->push_back({s.now(), 4}); });
}

TEST(EngineLegacy, IdenticalToRawScheduler) {
  EventLog raw_log;
  Scheduler raw;
  seed_program(raw, &raw_log);
  raw.run_until_idle();

  EventLog eng_log;
  Engine eng;  // Options{} -> legacy
  ASSERT_FALSE(eng.windowed());
  seed_program(eng.legacy_scheduler(), &eng_log);
  eng.run_until_idle();

  EXPECT_EQ(raw_log, eng_log);
  EXPECT_EQ(eng.events_processed(), raw.events_processed());
  EXPECT_EQ(eng.now(), raw.now());
  EXPECT_EQ(eng.local_now(), eng.now());
  EXPECT_EQ(eng.current_shard(), kNoShard);
}

TEST(EngineLegacy, PredicateStopsAreEventGranular) {
  // Legacy run_while must stop mid-stream exactly where a raw Scheduler
  // would: after the 50th event, not at some coarser boundary.
  int raw_count = 0;
  Scheduler raw;
  for (int i = 1; i <= 100; ++i) raw.at(us(i), [&] { ++raw_count; });
  raw.run_while([&] { return raw_count < 50; });

  int eng_count = 0;
  Engine eng;
  for (int i = 1; i <= 100; ++i) {
    eng.legacy_scheduler().at(us(i), [&] { ++eng_count; });
  }
  eng.run_while([&] { return eng_count < 50; });

  EXPECT_EQ(raw_count, 50);
  EXPECT_EQ(eng_count, 50);
  EXPECT_EQ(eng.now(), raw.now());
}

TEST(EngineWindowed, RunsEventsAndAdvancesAllClocksToBound) {
  Engine::Options opts;
  opts.shards = 2;
  Engine eng(opts);
  ASSERT_TRUE(eng.windowed());
  eng.constrain_lookahead(us(1));
  EXPECT_EQ(eng.lookahead(), us(1));

  int ran = 0;
  eng.shard(0).at(us(3), [&] { ++ran; });
  eng.shard(1).at(us(7), [&] { ++ran; });
  eng.run_until(us(20));

  EXPECT_EQ(ran, 2);
  EXPECT_GE(eng.windows_run(), 2u);
  // Bounded runs leave every shard clock at the bound, so now() is
  // well-defined and local_now() agrees outside a window.
  EXPECT_EQ(eng.now(), us(20));
  EXPECT_EQ(eng.shard(0).now(), us(20));
  EXPECT_EQ(eng.shard(1).now(), us(20));
  EXPECT_EQ(eng.local_now(), eng.now());
}

TEST(EngineWindowed, SameTimeMailDeliversInOriginOrder) {
  Engine::Options opts;
  opts.shards = 3;
  Engine eng(opts);
  eng.constrain_lookahead(us(1));

  // Shards 1 and 2 each post to shard 0 for the same instant; delivery
  // order must follow the shard-independent origin key, not the posting
  // shard or push interleaving.  Origins deliberately invert shard order.
  std::vector<int> order;  // only shard 0 executes these -> no race
  const SimTime when = us(5);
  eng.shard(2).at(us(2), [&] { eng.post(0, when, /*origin=*/1, [&] {
    order.push_back(1); }); });
  eng.shard(1).at(us(2), [&] { eng.post(0, when, /*origin=*/9, [&] {
    order.push_back(9); }); });
  eng.shard(1).at(us(2), [&] { eng.post(0, when, /*origin=*/4, [&] {
    order.push_back(4); }); });
  eng.run_until_idle();

  EXPECT_EQ(order, (std::vector<int>{1, 4, 9}));
  EXPECT_EQ(eng.mail_delivered(), 3u);
}

// Four logical nodes pass a token around a ring, node n pinned to shard
// n % N.  The per-node observation logs must be identical for every shard
// count: this is the determinism contract the cloud scenarios rely on.
std::array<EventLog, 4> run_ring(std::uint32_t shards) {
  Engine::Options opts;
  opts.shards = shards;
  Engine eng(opts);
  eng.constrain_lookahead(us(1));
  const auto shard_of = [&](int node) {
    return static_cast<ShardId>(node % shards);
  };

  std::array<EventLog, 4> log;
  std::function<void(int, int, int)> hop = [&](int node, int token,
                                               int hops) {
    log[node].push_back({eng.local_now(), token});
    if (hops == 0) return;
    const int next = (node + 1) % 4;
    eng.post(shard_of(next), eng.local_now() + eng.lookahead(), node,
             [&hop, next, token, hops] { hop(next, token + 1, hops - 1); });
  };
  for (int n = 0; n < 4; ++n) {
    eng.shard(shard_of(n)).at(us(n + 1), [&hop, n] { hop(n, 100 * n, 12); });
  }
  eng.run_until_idle();
  return log;
}

TEST(EngineWindowed, OutputInvariantAcrossShardCounts) {
  const auto one = run_ring(1);
  const auto two = run_ring(2);
  const auto four = run_ring(4);
  for (int n = 0; n < 4; ++n) {
    EXPECT_FALSE(one[n].empty());
    EXPECT_EQ(one[n], two[n]) << "node " << n << " diverged at 2 shards";
    EXPECT_EQ(one[n], four[n]) << "node " << n << " diverged at 4 shards";
  }
}

TEST(EngineWindowed, ConstrainLookaheadTightensAndClamps) {
  Engine::Options opts;
  opts.shards = 1;
  opts.max_lookahead = us(100);
  Engine eng(opts);
  eng.constrain_lookahead(us(200));  // looser: no effect
  EXPECT_EQ(eng.lookahead(), us(100));
  eng.constrain_lookahead(us(3));
  EXPECT_EQ(eng.lookahead(), us(3));
  eng.constrain_lookahead(0);  // clamped to the 1-tick floor
  EXPECT_EQ(eng.lookahead(), SimDur{1});
}

TEST(EngineWindowedDeathTest, LookaheadViolationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine::Options opts;
        opts.shards = 2;
        Engine eng(opts);
        eng.constrain_lookahead(us(1));
        // Posting *inside* the current window means a model path bypassed
        // the fabric's latency floor; the engine must refuse to reorder
        // history and abort instead.
        eng.shard(0).at(us(10), [&] { eng.post(1, us(10), 0, [] {}); });
        eng.run_until_idle();
      },
      "lookahead violation");
}

// Heavy cross-shard traffic: 64 token chains over 4 shards, every hop
// crossing a shard boundary through the mailboxes.  Every hop must run
// exactly once, on the shard it was posted to.
TEST(EngineWindowed, MailboxStressUnderParallelWorkers) {
  Engine::Options opts;
  opts.shards = 4;
  Engine eng(opts);
  eng.constrain_lookahead(ns(10));

  constexpr int kChains = 64;
  constexpr int kHops = 200;
  std::vector<std::vector<int>> seen(kChains);  // hops left, per execution
  std::function<void(int, int)> hop = [&](int chain, int hops) {
    EXPECT_EQ(eng.current_shard(),
              static_cast<ShardId>((chain + kHops - hops) % 4));
    seen[chain].push_back(hops);
    if (hops == 0) return;
    eng.post(static_cast<ShardId>((chain + kHops - hops + 1) % 4),
             eng.local_now() + eng.lookahead(), chain,
             [&hop, chain, hops] { hop(chain, hops - 1); });
  };
  for (int c = 0; c < kChains; ++c) {
    eng.shard(static_cast<ShardId>(c % 4))
        .at(ns(1), [&hop, c] { hop(c, kHops); });
  }
  eng.run_until_idle();

  std::vector<int> every_hop;
  for (int h = kHops; h >= 0; --h) every_hop.push_back(h);
  for (int c = 0; c < kChains; ++c) {
    EXPECT_EQ(seen[c], every_hop) << "chain " << c;
  }
  EXPECT_GE(eng.mail_delivered(),
            static_cast<std::uint64_t>(kChains) * kHops);
}

// Trial-level parallelism is what remains: two windowed worlds on two
// SweepRunner workers at once must each produce exactly the serial run's
// output.  Run under tsan this is the data-race probe for engines living
// side by side on different threads.
TEST(EngineWindowed, ConcurrentWorldsOnSweepWorkersMatchSerial) {
  const auto run = [](std::size_t jobs) {
    harness::SweepRunner sweep;
    std::vector<std::array<EventLog, 4>> logs(4);
    for (std::uint32_t t = 0; t < logs.size(); ++t) {
      sweep.add("ring" + std::to_string(t),
                [&logs, t](harness::TrialContext&) {
                  logs[t] = run_ring(1 + t % 4);
                  return harness::Record{};
                });
    }
    harness::SweepRunner::Options o;
    o.jobs = jobs;
    EXPECT_EQ(sweep.run(o).jobs, jobs);
    return logs;
  };
  const auto serial = run(1);
  const auto parallel = run(2);
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_EQ(serial[t], parallel[t]) << "trial " << t;
    EXPECT_EQ(serial[t], serial[0]) << "trial " << t;
  }
}

}  // namespace
}  // namespace ragnar::sim
