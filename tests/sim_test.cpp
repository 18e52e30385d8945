#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/flat_map.hpp"
#include "sim/inline_fn.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace ragnar::sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(ns(1), 1000u);
  EXPECT_EQ(us(1), 1000000u);
  EXPECT_EQ(ms(1), 1000000000u);
  EXPECT_EQ(sec(1), 1000000000000u);
  EXPECT_DOUBLE_EQ(to_ns(ns(42)), 42.0);
  EXPECT_DOUBLE_EQ(to_us(us(1.5)), 1.5);
}

TEST(Time, SerializationTime) {
  // 1 byte at 8 Gb/s = 1 ns.
  EXPECT_EQ(serialization_time(1, 8.0), ns(1));
  // 64 B at 200 Gb/s = 2.56 ns.
  EXPECT_EQ(serialization_time(64, 200.0), 2560u);
  // 4 KiB at 25 Gb/s ~ 1.31 us.
  EXPECT_NEAR(to_us(serialization_time(4096, 25.0)), 1.31, 0.01);
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(format_duration(ns(1.5)), "1.500 ns");
  EXPECT_EQ(format_duration(us(2)), "2.000 us");
  EXPECT_EQ(format_duration(500), "500 ps");
}

TEST(Random, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Random, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Random, ForkIndependent) {
  Xoshiro256 a(7);
  Xoshiro256 c = a.fork();
  // Forked stream should not mirror the parent.
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == c());
  EXPECT_EQ(same, 0);
}

TEST(Random, UniformRange) {
  Xoshiro256 r(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Random, UniformU64Unbiased) {
  Xoshiro256 r(5);
  std::vector<int> buckets(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[r.uniform_u64(10)];
  for (int b : buckets) EXPECT_NEAR(b, n / 10, n / 100);
}

TEST(Random, NormalMoments) {
  Xoshiro256 r(11);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Random, ClampedNormalBounds) {
  Xoshiro256 r(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.clamped_normal(100.0, 10.0, 3.0);
    EXPECT_GE(v, 70.0);
    EXPECT_LE(v, 130.0);
  }
}

TEST(Random, Bernoulli) {
  Xoshiro256 r(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RunningStats, Moments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, Merge) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 120; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(10), 10.9, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(SampleSet, PercentileAfterMoreSamples) {
  SampleSet s;
  s.add(1);
  EXPECT_DOUBLE_EQ(s.percentile(50), 1.0);
  s.add(3);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);  // sort cache must invalidate
}

TEST(Stats, PearsonPerfect) {
  std::vector<double> x{1, 2, 3, 4, 5}, y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> yn{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
}

TEST(Stats, PearsonUncorrelated) {
  Xoshiro256 r(23);
  std::vector<double> x, y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(r.uniform());
    y.push_back(r.uniform());
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Stats, LinearFit) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.5 * i + 7.0);
  }
  const LinearFit f = linear_fit(x, y);
  EXPECT_NEAR(f.slope, 3.5, 1e-9);
  EXPECT_NEAR(f.intercept, 7.0, 1e-9);
  EXPECT_NEAR(f.r, 1.0, 1e-12);
}

TEST(Stats, AutocorrelationOfSine) {
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) xs.push_back(std::sin(2 * M_PI * i / 25.0));
  EXPECT_NEAR(autocorrelation(xs, 25), 1.0, 0.01);   // full period
  EXPECT_NEAR(autocorrelation(xs, 12), -0.96, 0.06); // ~half period
  EXPECT_DOUBLE_EQ(autocorrelation(xs, 0), 1.0);
}

TEST(Stats, EstimatePeriodFindsSinePeriod) {
  Xoshiro256 rng(31);
  std::vector<double> xs;
  for (int i = 0; i < 600; ++i) {
    xs.push_back(std::sin(2 * M_PI * i / 37.0) + 0.2 * rng.normal());
  }
  EXPECT_EQ(estimate_period(xs, 5, 120), 37u);
}

TEST(Stats, EstimatePeriodRejectsNoise) {
  Xoshiro256 rng(32);
  std::vector<double> xs;
  for (int i = 0; i < 600; ++i) xs.push_back(rng.normal());
  EXPECT_EQ(estimate_period(xs, 5, 120, /*min_corr=*/0.4), 0u);
}

TEST(Stats, BinaryEntropy) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
  EXPECT_NEAR(binary_entropy(0.11), 0.4999, 5e-4);
}

// The paper's Table V satisfies effective = raw * (1 - H2(err)) exactly;
// verify our implementation reproduces the published rows.
TEST(Stats, TableVEffectiveBandwidthIdentity) {
  EXPECT_NEAR(effective_bandwidth(84.3, 0.0759), 51.6, 0.15);
  EXPECT_NEAR(effective_bandwidth(63.6, 0.0398), 48.3, 0.15);
  EXPECT_NEAR(effective_bandwidth(31.8, 0.0592), 21.5, 0.15);
  EXPECT_NEAR(effective_bandwidth(32.2, 0.0695), 20.5, 0.15);
  EXPECT_NEAR(effective_bandwidth(31.5, 0.0484), 22.7, 0.15);
  EXPECT_NEAR(effective_bandwidth(81.3, 0.0408), 61.3, 0.25);
}

TEST(Stats, MaxNormalizedCorrelationFindsTemplate) {
  std::vector<double> tmpl{0, 1, 2, 3, 2, 1, 0};
  std::vector<double> signal(40, 0.1);
  for (std::size_t i = 0; i < tmpl.size(); ++i) signal[20 + i] = tmpl[i] * 2 + 5;
  EXPECT_GT(max_normalized_correlation(signal, tmpl), 0.99);
}

TEST(EventQueue, TimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreak) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop(nullptr)();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ClearResetsToFreshState) {
  // clear() must reset the FIFO tie-break sequence along with the heap: a
  // cleared queue has to order same-time events exactly like a fresh one
  // (a stale sequence counter would still order correctly but would break
  // determinism against a run that started from a new queue).
  EventQueue used;
  for (int i = 0; i < 10; ++i) used.push(5, [] {});
  used.pop(nullptr);
  used.clear();
  EXPECT_TRUE(used.empty());
  EXPECT_EQ(used.size(), 0u);

  EventQueue fresh;
  std::vector<int> used_order, fresh_order;
  for (int i = 0; i < 10; ++i) {
    used.push(7, [&used_order, i] { used_order.push_back(i); });
    fresh.push(7, [&fresh_order, i] { fresh_order.push_back(i); });
  }
  while (!used.empty()) {
    SimTime tu = 0, tf = 0;
    used.pop(&tu)();
    fresh.pop(&tf)();
    EXPECT_EQ(tu, tf);
  }
  EXPECT_EQ(used_order, fresh_order);
  EXPECT_EQ(fresh_order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

// A callable that records how often each capture id is destroyed while
// live (moved-from shells do not count).  `Pad` bytes of ballast push the
// capture past InlineFn's inline budget onto the boxed path.
template <std::size_t Pad>
struct Counted {
  std::vector<int>* destroyed;
  std::vector<int>* fired;
  int id;
  bool live = true;
  unsigned char pad[Pad] = {};

  Counted(std::vector<int>* d, std::vector<int>* f, int i)
      : destroyed(d), fired(f), id(i) {}
  Counted(Counted&& o) noexcept
      : destroyed(o.destroyed), fired(o.fired), id(o.id), live(o.live) {
    o.live = false;
  }
  Counted(const Counted&) = delete;
  ~Counted() {
    if (live) ++(*destroyed)[id];
  }
  void operator()() { fired->push_back(id); }
};
using SmallCapture = Counted<1>;
using BigCapture = Counted<InlineFn::kInlineBytes>;
static_assert(InlineFn::fits<SmallCapture>);
static_assert(!InlineFn::fits<BigCapture>);

TEST(EventQueue, EveryCaptureIsDestroyedExactlyOnce) {
  std::vector<int> destroyed(40, 0), fired;
  {
    EventQueue q;
    for (int i = 0; i < 20; ++i) {
      q.push(static_cast<SimTime>(i), SmallCapture(&destroyed, &fired, i));
      q.push(static_cast<SimTime>(i),
             BigCapture(&destroyed, &fired, 20 + i));
    }
    // Leave by pop: the returned callable dies with the full expression.
    for (int i = 0; i < 6; ++i) q.pop(nullptr)();
    // Leave by run_next: destroyed in its slot right after it runs.
    for (int i = 0; i < 6; ++i) q.run_next([](SimTime) {});
    EXPECT_EQ(fired, (std::vector<int>{0, 20, 1, 21, 2, 22, 3, 23, 4, 24, 5,
                                       25}));
    for (int i : fired) EXPECT_EQ(destroyed[i], 1) << "id " << i;
    // Leave by clear(): every pending capture dies without running.
    q.clear();
    for (int d : destroyed) EXPECT_EQ(d, 1);
    // Freed slots are reused; these die with the queue itself.
    for (int i = 0; i < 3; ++i) {
      q.push(0, SmallCapture(&destroyed, &fired, i));
    }
  }
  EXPECT_EQ(fired.size(), 12u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(destroyed[i], i < 3 ? 2 : 1) << "id " << i;
  }
}

TEST(Scheduler, PendingCapturesDieWithTheScheduler) {
  std::vector<int> destroyed(20, 0), fired;
  {
    Scheduler s;
    for (int i = 0; i < 10; ++i) {
      s.at(us(i), SmallCapture(&destroyed, &fired, i));
      s.at(us(i), BigCapture(&destroyed, &fired, 10 + i));
    }
    s.run_until(us(4));
    EXPECT_EQ(fired.size(), 10u);
    EXPECT_EQ(s.pending(), 10u);
  }
  for (int d : destroyed) EXPECT_EQ(d, 1);
}

TEST(EventQueue, OversizedCaptureIsBoxedAndKeepsOrder) {
  // Interleave inline and boxed callables on the same timestamps: the boxed
  // path must not disturb (at, seq) order.
  std::vector<int> destroyed(12, 0), fired;
  EventQueue q;
  for (int i = 0; i < 12; ++i) {
    const SimTime at = 10 - static_cast<SimTime>(i / 4) * 5;  // 10, 5, 0
    if (i % 2 == 0) {
      q.push(at, BigCapture(&destroyed, &fired, i));
    } else {
      q.push(at, SmallCapture(&destroyed, &fired, i));
    }
  }
  SimTime last = 0;
  while (!q.empty()) {
    SimTime at = 0;
    q.pop(&at)();
    EXPECT_GE(at, last);
    last = at;
  }
  EXPECT_EQ(fired,
            (std::vector<int>{8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3}));
  for (int d : destroyed) EXPECT_EQ(d, 1);
}

TEST(EventQueue, AcceptsMoveOnlyCapture) {
  Scheduler s;
  int seen = 0;
  auto owned = std::make_unique<int>(42);
  s.after(ns(5), [&seen, p = std::move(owned)] { seen = *p; });
  InlineFn fn([p = std::make_unique<int>(7), &seen] { seen += *p; });
  s.after(ns(6), std::move(fn));
  EXPECT_FALSE(fn);  // a moved-from InlineFn is empty
  s.run_until_idle();
  EXPECT_EQ(seen, 49);
}

TEST(Scheduler, AdvancesClock) {
  Scheduler s;
  SimTime seen = 0;
  s.after(us(5), [&] { seen = s.now(); });
  s.run_until_idle();
  EXPECT_EQ(seen, us(5));
  EXPECT_EQ(s.now(), us(5));
}

TEST(Scheduler, RunUntil) {
  Scheduler s;
  int fired = 0;
  s.at(us(1), [&] { ++fired; });
  s.at(us(10), [&] { ++fired; });
  s.run_until(us(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), us(5));
  s.run_until_idle();
  EXPECT_EQ(fired, 2);
}

#ifdef RAGNAR_SANITIZE
// Sanitizer builds assert the invariant instead of repairing it.
TEST(SchedulerDeathTest, PastSchedulingAbortsUnderSanitizers) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler s;
        s.run_until(us(10));
        s.at(us(3), [] {});
      },
      "scheduled into the past");
}
#else
// Release builds clamp to `now` and count.
TEST(Scheduler, PastSchedulingClamps) {
  Scheduler s;
  s.at(us(3), [&] {
    // Scheduling "in the past" must not travel back in time.
    s.at(us(1), [&] { EXPECT_GE(s.now(), us(3)); });
  });
  s.run_until_idle();
}

TEST(Scheduler, PastAtRunsAtNowAndIsCounted) {
  Scheduler s;
  const std::uint64_t total_before = Scheduler::total_past_clamps();
  s.run_until(us(10));
  s.at(us(10), [] {});  // exactly now: not a clamp
  EXPECT_EQ(s.past_clamps(), 0u);
  SimTime ran_at = 0;
  s.at(us(3), [&] { ran_at = s.now(); });
  EXPECT_EQ(s.past_clamps(), 1u);
  s.run_until_idle();
  EXPECT_EQ(ran_at, us(10));
  EXPECT_EQ(s.now(), us(10));
  EXPECT_EQ(Scheduler::total_past_clamps() - total_before, 1u);
}
#endif  // RAGNAR_SANITIZE

TEST(Coro, SleepSequence) {
  Scheduler s;
  std::vector<SimTime> stamps;
  auto actor = [&]() -> Task {
    stamps.push_back(s.now());
    co_await s.sleep(us(2));
    stamps.push_back(s.now());
    co_await s.sleep(us(3));
    stamps.push_back(s.now());
  };
  s.spawn(actor());
  s.run_until_idle();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 0u);
  EXPECT_EQ(stamps[1], us(2));
  EXPECT_EQ(stamps[2], us(5));
}

TEST(Coro, TriggerReleasesWaiters) {
  Scheduler s;
  Trigger t(s);
  int released = 0;
  auto waiter = [&]() -> Task {
    co_await t;
    ++released;
  };
  s.spawn(waiter());
  s.spawn(waiter());
  s.after(us(1), [&] { t.fire(); });
  s.run_until_idle();
  EXPECT_EQ(released, 2);
  EXPECT_TRUE(t.fired());
}

TEST(Coro, TriggerAwaitAfterFire) {
  Scheduler s;
  Trigger t(s);
  t.fire();
  bool ran = false;
  auto waiter = [&]() -> Task {
    co_await t;  // already fired: must not suspend forever
    ran = true;
  };
  s.spawn(waiter());
  s.run_until_idle();
  EXPECT_TRUE(ran);
}

TEST(Coro, Latch) {
  Scheduler s;
  Latch latch(s, 3);
  bool done = false;
  auto waiter = [&]() -> Task {
    co_await latch;
    done = true;
  };
  s.spawn(waiter());
  s.after(us(1), [&] { latch.arrive(); });
  s.after(us(2), [&] { latch.arrive(); });
  s.run_until_idle();
  EXPECT_FALSE(done);
  latch.arrive();
  s.run_until_idle();
  EXPECT_TRUE(done);
}

TEST(Resource, FifoServerQueues) {
  FifoServer f;
  EXPECT_EQ(f.reserve(0, 100), 100u);
  EXPECT_EQ(f.reserve(0, 100), 200u);   // queues behind the first
  EXPECT_EQ(f.reserve(500, 100), 600u); // idle gap resets
  EXPECT_EQ(f.busy_total(), 300u);
  EXPECT_EQ(f.reservations(), 3u);
}

TEST(Resource, FifoServerBacklog) {
  FifoServer f;
  f.reserve(0, 1000);
  EXPECT_EQ(f.backlog(200), 800u);
  EXPECT_EQ(f.backlog(2000), 0u);
}

TEST(Resource, BandwidthServerRate) {
  BandwidthServer b(8.0, 0);  // 8 Gb/s: 1 ns per byte
  EXPECT_EQ(b.service_time(1000), ns(1000));
  EXPECT_EQ(b.reserve(0, 1000), ns(1000));
  EXPECT_EQ(b.reserve(0, 1000), ns(2000));
}

TEST(Resource, BandwidthServerOverhead) {
  BandwidthServer b(8.0, ns(50));
  EXPECT_EQ(b.service_time(100), ns(150));
}

TEST(Resource, PoolServerParallelism) {
  PoolServer p(2);
  EXPECT_EQ(p.reserve(0, 100), 100u);
  EXPECT_EQ(p.reserve(0, 100), 100u);  // second unit
  EXPECT_EQ(p.reserve(0, 100), 200u);  // queues on the earliest-free unit
  EXPECT_EQ(p.earliest_free(), 100u);  // the other unit is still free at 100
}

TEST(FlatMap, SortedLookupAndTryEmplace) {
  FlatMap<std::uint32_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7u), nullptr);
  auto [a, fresh_a] = m.try_emplace(7u, 70);
  EXPECT_TRUE(fresh_a);
  EXPECT_EQ(*a, 70);
  auto [b, fresh_b] = m.try_emplace(7u, 99);
  EXPECT_FALSE(fresh_b);
  EXPECT_EQ(*b, 70);
  m[3u] = 30;
  m[11u] = 110;
  ASSERT_EQ(m.size(), 3u);
  // Iteration is in ascending key order.
  std::vector<std::uint32_t> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::uint32_t>{3, 7, 11}));
  ASSERT_NE(m.find(3u), nullptr);
  EXPECT_EQ(*m.find(3u), 30);
  m.clear();
  EXPECT_EQ(m.find(3u), nullptr);
}

TEST(Trace, RateSamplerBins) {
  obs::RateSampler rs(ms(1));
  rs.record(us(100), 125000);   // bin 0: 1 Gb/s
  rs.record(us(1500), 250000);  // bin 1: 2 Gb/s
  const auto g = rs.gbps_series();
  ASSERT_EQ(g.size(), 2u);
  EXPECT_NEAR(g[0], 1.0, 1e-9);
  EXPECT_NEAR(g[1], 2.0, 1e-9);
}

TEST(Trace, TimeSeriesWindow) {
  obs::TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.add(us(i), i);
  const auto v = ts.values_in(us(3), us(7));
  EXPECT_EQ(v, (std::vector<double>{3, 4, 5, 6}));
}

TEST(Trace, AsciiPlotNonEmpty) {
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) ys.push_back(std::sin(i / 10.0));
  const std::string plot = ascii_plot(ys, 40, 8, "wave");
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("wave"), std::string::npos);
}

}  // namespace
}  // namespace ragnar::sim
