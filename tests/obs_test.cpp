#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/harness.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"
#include "sim/time.hpp"

// Tests for the PR 3 observability subsystem: metrics registry, span tracer,
// ambient hub, and the harness integration (per-trial snapshots must be
// byte-identical for any --jobs value).
namespace ragnar {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- labels & keys ----------------------------------------------------------

TEST(LabelSet, CanonicalizesKeyOrder) {
  const obs::LabelSet a{{"tc", "1"}, {"op", "READ"}};
  const obs::LabelSet b{{"op", "READ"}, {"tc", "1"}};
  EXPECT_EQ(a.render(), b.render());
  EXPECT_EQ(a.render(), "{op=READ,tc=1}");
  EXPECT_EQ(obs::metric_key("rnic.tx", a), "rnic.tx{op=READ,tc=1}");
  EXPECT_EQ(obs::metric_key("rnic.tx", {}), "rnic.tx");
}

// --- registry instruments ---------------------------------------------------

TEST(MetricsRegistry, AccessorsReturnStableRefs) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("ops");
  c.add(3);
  // Growing the registry must not invalidate the first reference.
  for (int i = 0; i < 100; ++i) {
    reg.counter("other", obs::LabelSet{{"i", std::to_string(i)}}).add();
  }
  c.add(2);
  EXPECT_EQ(reg.counter("ops").value(), 5u);
  reg.gauge("depth").set(7.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 7.5);
}

// --- cached instrument handles -----------------------------------------------

TEST(MetricsRegistry, IdsAreUniqueAndClearDrawsANewOne) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  EXPECT_NE(a.id(), 0u);
  EXPECT_NE(a.id(), b.id());
  const std::uint64_t before = a.id();
  a.clear();
  EXPECT_NE(a.id(), before);
  EXPECT_NE(a.id(), b.id());
}

TEST(CachedHandle, ResolvesOncePerRegistryAndAgainAfterClear) {
  obs::Cached<obs::Counter> h;
  int resolves = 0;
  const auto resolve = [&resolves](obs::MetricsRegistry& r) -> obs::Counter& {
    ++resolves;
    return r.counter("rnic.stage.msgs", {{"stage", "tx_arbiter"}});
  };
  obs::MetricsRegistry reg;
  for (int i = 0; i < 5; ++i) h.in(reg, resolve).add();
  EXPECT_EQ(resolves, 1);
  // The handle records into the same instrument the string path names.
  EXPECT_EQ(reg.counter("rnic.stage.msgs", {{"stage", "tx_arbiter"}}).value(),
            5u);

  // clear() frees the instrument; the handle must not write through its
  // stale pointer but re-resolve into the fresh one.
  reg.clear();
  h.in(reg, resolve).add(2);
  EXPECT_EQ(resolves, 2);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.cells.size(), 1u);
  EXPECT_EQ(snap.cells[0].column, "rnic.stage.msgs{stage=tx_arbiter}");
  EXPECT_EQ(snap.cells[0].value, "2");
}

TEST(CachedHandle, FollowsTheRegistryItIsGiven) {
  obs::Cached<obs::Histogram> h;
  const auto resolve = [](obs::MetricsRegistry& r) -> obs::Histogram& {
    return r.histogram("verbs.op_ns", {{"op", "READ"}});
  };
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  h.in(a, resolve).record(10);
  h.in(b, resolve).record(20);
  h.in(b, resolve).record(30);
  h.in(a, resolve).record(40);
  EXPECT_EQ(a.histogram("verbs.op_ns", {{"op", "READ"}}).count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("verbs.op_ns", {{"op", "READ"}}).sum(), 50.0);
  EXPECT_EQ(b.histogram("verbs.op_ns", {{"op", "READ"}}).count(), 2u);
  EXPECT_DOUBLE_EQ(b.histogram("verbs.op_ns", {{"op", "READ"}}).sum(), 50.0);
}

// A registry built where a destroyed one lived (trial hubs are allocated
// and freed back to back) still gets a fresh id, so a handle cached against
// the dead registry re-resolves instead of writing into freed memory.
TEST(CachedHandle, ReResolvesInARegistryThatReusesAnAddress) {
  obs::Cached<obs::Counter> h;
  int resolves = 0;
  const auto resolve = [&resolves](obs::MetricsRegistry& r) -> obs::Counter& {
    ++resolves;
    return r.counter("fabric.delivered");
  };
  alignas(obs::MetricsRegistry) unsigned char
      slot[sizeof(obs::MetricsRegistry)];
  auto* first = new (slot) obs::MetricsRegistry();
  h.in(*first, resolve).add();
  first->~MetricsRegistry();
  auto* second = new (slot) obs::MetricsRegistry();
  h.in(*second, resolve).add();
  EXPECT_EQ(resolves, 2);
  EXPECT_EQ(second->counter("fabric.delivered").value(), 1u);
  second->~MetricsRegistry();
}

TEST(Histogram, QuantilesWithinLogLinearError) {
  obs::Histogram h;
  for (int v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Extremes clamp to the observed min/max exactly.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  // Interior quantiles resolve within the 1/kSubBuckets = 6.25% relative
  // bucket error.
  EXPECT_NEAR(h.quantile(0.50), 500.5, 0.0625 * 500.5 + 1.0);
  EXPECT_NEAR(h.quantile(0.90), 900.0, 0.0625 * 900.0 + 1.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 0.0625 * 990.0 + 1.0);
}

TEST(Histogram, SubUnitAndSingletonValues) {
  obs::Histogram h;
  h.record(0.25);  // sub-unit values land in the low bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.25);  // clamped to observed extrema
  obs::Histogram one;
  one.record(42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 42.0);
  obs::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(MetricsRegistry, SnapshotFlattensInKeyOrder) {
  obs::MetricsRegistry reg;
  reg.counter("z.ops").add(4);
  reg.counter("a.ops").add(1);
  reg.histogram("lat").record(100.0);
  reg.series("track").add(sim::us(1), 2.5);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_FALSE(snap.empty());
  // Counters sort by key within their instrument class.
  EXPECT_EQ(snap.cells[0].column, "a.ops");
  EXPECT_EQ(snap.cells[0].value, "1");
  EXPECT_EQ(snap.cells[1].column, "z.ops");
  EXPECT_EQ(snap.cells[1].value, "4");
  ASSERT_NE(snap.find("lat.count"), nullptr);
  EXPECT_EQ(*snap.find("lat.count"), "1");
  ASSERT_NE(snap.find("track.last"), nullptr);
  EXPECT_EQ(*snap.find("track.last"), "2.500");
  EXPECT_EQ(snap.find("missing"), nullptr);
}

// --- tracer -----------------------------------------------------------------

TEST(Tracer, NestedSpansCarryDepthAsTid) {
  obs::Tracer tr;
  tr.begin("a", "outer", sim::us(1));
  tr.begin("a", "inner", sim::us(2));
  EXPECT_EQ(tr.open_spans(), 2u);
  tr.end(sim::us(3));  // closes inner at depth 1
  tr.end(sim::us(5));  // closes outer at depth 0
  EXPECT_EQ(tr.open_spans(), 0u);
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].name, "inner");
  EXPECT_EQ(evs[0].tid, 1u);
  EXPECT_EQ(evs[0].dur, sim::us(1));
  EXPECT_EQ(evs[1].name, "outer");
  EXPECT_EQ(evs[1].tid, 0u);
  EXPECT_EQ(evs[1].dur, sim::us(4));
  // Unmatched end is dropped, never fatal.
  tr.end(sim::us(6));
  EXPECT_EQ(tr.events().size(), 2u);
}

TEST(Tracer, RingEvictsOldestAndCountsDropped) {
  obs::Tracer tr(4);
  for (int i = 0; i < 7; ++i) {
    tr.instant("c", "e" + std::to_string(i), sim::us(i));
  }
  EXPECT_EQ(tr.recorded(), 7u);
  EXPECT_EQ(tr.dropped(), 3u);
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first, keeping the most recent capacity events.
  EXPECT_EQ(evs.front().name, "e3");
  EXPECT_EQ(evs.back().name, "e6");
  // take() drains.
  EXPECT_EQ(tr.take().size(), 4u);
  EXPECT_EQ(tr.events().size(), 0u);
}

// --- Chrome trace JSON ------------------------------------------------------

TEST(ChromeTrace, GoldenFile) {
  std::vector<obs::TraceEvent> evs(3);
  evs[0].ph = obs::TraceEvent::Phase::kComplete;
  evs[0].pid = 3;
  evs[0].tid = 2;
  evs[0].cat = "verbs";
  evs[0].name = "READ";
  evs[0].ts = sim::us(1);
  evs[0].dur = sim::ns(500);
  evs[0].args = {{"qp", "7"}};
  evs[1].ph = obs::TraceEvent::Phase::kInstant;
  evs[1].cat = "qp";
  evs[1].name = "RTS";
  evs[1].ts = sim::us(2) + sim::ns(500);
  evs[2].ph = obs::TraceEvent::Phase::kCounter;
  evs[2].cat = "telemetry";
  evs[2].name = "gbps";
  evs[2].ts = sim::us(3);
  evs[2].args = {{"value", "12.250000"}};

  const std::string path = ::testing::TempDir() + "obs_golden_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path, evs, 0));
  const std::string expected =
      "{\"traceEvents\": [\n"
      "  {\"ph\": \"X\", \"pid\": 3, \"tid\": 2, \"cat\": \"verbs\", "
      "\"name\": \"READ\", \"ts\": 1.000000, \"dur\": 0.500000, "
      "\"args\": {\"qp\": \"7\"}},\n"
      "  {\"ph\": \"i\", \"pid\": 0, \"tid\": 0, \"cat\": \"qp\", "
      "\"name\": \"RTS\", \"ts\": 2.500000, \"s\": \"t\"},\n"
      "  {\"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"cat\": \"telemetry\", "
      "\"name\": \"gbps\", \"ts\": 3.000000, "
      "\"args\": {\"value\": \"12.250000\"}}\n"
      "],\n"
      "\"displayTimeUnit\": \"ns\",\n"
      "\"otherData\": {\"clock\": \"simulated (1 us = 1 us sim)\", "
      "\"dropped_events\": \"0\"}}\n";
  EXPECT_EQ(slurp(path), expected);
  std::remove(path.c_str());
}

TEST(ChromeTrace, EscapesQuotesAndControlChars) {
  std::vector<obs::TraceEvent> evs(1);
  evs[0].ph = obs::TraceEvent::Phase::kInstant;
  evs[0].cat = "c";
  evs[0].name = "quote\" back\\ nl\n bel\x07";
  evs[0].ts = 0;
  const std::string path = ::testing::TempDir() + "obs_escape_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path, evs, 2));
  const std::string body = slurp(path);
  EXPECT_NE(body.find("quote\\\" back\\\\ nl\\n bel\\u0007"),
            std::string::npos);
  EXPECT_NE(body.find("\"dropped_events\": \"2\""), std::string::npos);
  std::remove(path.c_str());
}

// --- ambient hub ------------------------------------------------------------

TEST(Hub, AmbientInstallAndScopedRestore) {
  EXPECT_EQ(obs::current(), nullptr);
  EXPECT_EQ(obs::metrics(), nullptr);  // hook accessors null-safe
  EXPECT_EQ(obs::tracer(), nullptr);
  obs::Hub plain;  // no tracing by default
  {
    obs::ScopedHub ambient(&plain);
    EXPECT_EQ(obs::current(), &plain);
    ASSERT_NE(obs::metrics(), nullptr);
    EXPECT_EQ(obs::tracer(), nullptr);  // tracing not armed
    obs::Hub::Config cfg;
    cfg.tracing = true;
    cfg.trace_capacity = 8;
    obs::Hub traced(cfg);
    {
      obs::ScopedHub nested(&traced);
      EXPECT_EQ(obs::current(), &traced);
      ASSERT_NE(obs::tracer(), nullptr);
      EXPECT_EQ(obs::tracer()->capacity(), 8u);
    }
    EXPECT_EQ(obs::current(), &plain);  // nesting restores the outer hub
  }
  EXPECT_EQ(obs::current(), nullptr);
}

// --- harness integration ----------------------------------------------------

// A sweep whose trials record registry metrics and spans derived only from
// the trial seed — the determinism contract for observability.
harness::SweepRunner make_obs_sweep(std::size_t trials) {
  harness::SweepRunner sweep;
  for (std::size_t i = 0; i < trials; ++i) {
    sweep.add("t" + std::to_string(i), [](harness::TrialContext& ctx) {
      sim::Xoshiro256 rng(ctx.seed);
      obs::MetricsRegistry* reg = obs::metrics();
      obs::Tracer* tr = obs::tracer();
      if (reg != nullptr) {
        for (int k = 0; k < 64; ++k) {
          const double v = 1.0 + rng.uniform() * 1000.0;
          reg->counter("ops", obs::LabelSet{{"tc", std::to_string(k % 2)}})
              .add();
          reg->histogram("lat_ns").record(v);
          if (tr != nullptr) {
            tr->complete("op", "READ", sim::us(k),
                         sim::us(k) + static_cast<sim::SimDur>(v));
          }
        }
      }
      harness::Record rec;
      rec.set("done", std::uint64_t{1});
      return rec;
    });
  }
  return sweep;
}

TEST(HarnessObs, SnapshotsAndCsvIdenticalAcrossJobs) {
  harness::SweepRunner::Options o1;
  o1.jobs = 1;
  o1.obs = true;
  o1.trace = true;
  harness::SweepRunner::Options o8 = o1;
  o8.jobs = 8;

  harness::SweepRunner s1 = make_obs_sweep(8);
  harness::SweepRunner s8 = make_obs_sweep(8);
  const harness::SweepReport r1 = s1.run(o1);
  const harness::SweepReport r8 = s8.run(o8);

  ASSERT_EQ(r1.trials.size(), r8.trials.size());
  for (std::size_t i = 0; i < r1.trials.size(); ++i) {
    const auto& a = r1.trials[i].metrics.cells;
    const auto& b = r8.trials[i].metrics.cells;
    ASSERT_EQ(a.size(), b.size()) << "trial " << i;
    ASSERT_FALSE(a.empty()) << "trial " << i;
    for (std::size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c].column, b[c].column) << "trial " << i;
      EXPECT_EQ(a[c].value, b[c].value) << "trial " << i;
    }
    // Span streams are equally deterministic.
    ASSERT_EQ(r1.trials[i].trace.size(), r8.trials[i].trace.size());
    EXPECT_EQ(r1.trials[i].trace_dropped, r8.trials[i].trace_dropped);
  }
  EXPECT_EQ(r1.metric_columns(), r8.metric_columns());

  // End to end: CSV bytes agree except the wall_ms column (host time).
  const std::string dir = ::testing::TempDir();
  const std::string p1 = r1.write_csv(dir, "obs_jobs1");
  const std::string p8 = r8.write_csv(dir, "obs_jobs8");
  ASSERT_FALSE(p1.empty());
  std::istringstream f1(slurp(p1)), f8(slurp(p8));
  std::string l1, l8;
  while (std::getline(f1, l1)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(f8, l8)));
    // Blank the wall_ms field (4th column) on both sides.
    auto blank_wall = [](std::string s) {
      std::size_t start = 0;
      for (int c = 0; c < 3; ++c) start = s.find(',', start) + 1;
      const std::size_t end = s.find(',', start);
      return s.replace(start, end - start, "wall");
    };
    EXPECT_EQ(blank_wall(l1), blank_wall(l8));
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(f8, l8)));
  std::remove(p1.c_str());
  std::remove(p8.c_str());
}

TEST(HarnessObs, OffByDefaultAndChromeTraceMerge) {
  // obs off: no snapshots, no metric columns, no trace file.
  harness::SweepRunner plain = make_obs_sweep(3);
  const harness::SweepReport off = plain.run({.jobs = 2});
  for (const auto& t : off.trials) {
    EXPECT_TRUE(t.metrics.empty());
    EXPECT_TRUE(t.trace.empty());
  }
  EXPECT_TRUE(off.metric_columns().empty());
  const std::string none = ::testing::TempDir() + "obs_none.json";
  EXPECT_FALSE(off.write_chrome_trace(none));

  // obs + trace on: merged Chrome trace with one pid per trial (index + 1).
  harness::SweepRunner traced = make_obs_sweep(3);
  harness::SweepRunner::Options opts;
  opts.jobs = 2;
  opts.obs = true;
  opts.trace = true;
  const harness::SweepReport on = traced.run(opts);
  const std::string path = ::testing::TempDir() + "obs_merged.json";
  ASSERT_TRUE(on.write_chrome_trace(path));
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(body.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"pid\": 3"), std::string::npos);
  EXPECT_EQ(body.find("\"pid\": 0"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ragnar
