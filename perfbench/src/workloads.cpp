#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <string>

#include "analysis/dataset.hpp"
#include "analysis/mlp.hpp"
#include "bench/cloud_common.hpp"
#include "covert/framing.hpp"
#include "covert/priority_channel.hpp"
#include "covert/transport/link.hpp"
#include "covert/transport/session.hpp"
#include "covert/uli_channel.hpp"
#include "defense/enforcer.hpp"
#include "defense/harmonic.hpp"
#include "defense/online/pipeline.hpp"
#include "fabric/topology.hpp"
#include "faults/faults.hpp"
#include "harness/harness.hpp"
#include "obs/obs.hpp"
#include "revng/flow.hpp"
#include "revng/testbed.hpp"
#include "side/snoop.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "spans.hpp"
#include "verbs/context.hpp"

namespace perfbench {

using namespace ragnar;

// ---------------------------------------------------------------------------
// Stats

void Stats::mix(const std::string& key, double v) {
  char buf[96];
  const int n = std::snprintf(buf, sizeof buf, "%s=%.17g;", key.c_str(), v);
  for (int i = 0; i < n && i < static_cast<int>(sizeof buf); ++i) {
    hash_ ^= static_cast<unsigned char>(buf[i]);
    hash_ *= 1099511628211ull;
  }
}

void Stats::count(const std::string& name, double v) {
  counts_[name] += v;
  mix(name, v);
}

void Stats::note(const std::string& key, double v) { mix(key, v); }

void Stats::note_all(const std::string& key, const std::vector<double>& v) {
  for (double x : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  mix(key, static_cast<double>(v.size()));
}

double Stats::get(const std::string& name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

namespace {

// The snoop workload's MLP accuracy floor, set from recorded seeds: with
// six training traces per class, seeds 1-10 scored 0.35-0.74 (chance is
// 1/17), so only a collapse of the trace signal or the trainer fails it.
constexpr double kSnoopAccuracyFloor = 0.2;
// Parallelism: covert_lossy's and defense_loop's harness workers,
// cloud_fabric's engine shards.
constexpr unsigned kLossyJobs = 2;
constexpr unsigned kCloudShards = 2;
constexpr unsigned kDefenseJobs = 2;
// defense_loop's covert payload (defense_closed_loop sends 24 B).
constexpr std::size_t kDefensePayloadBytes = 8;
constexpr std::uint64_t kDefenseSeed = 2024;  // defense_closed_loop's default

// ---------------------------------------------------------------------------
// Phase timing

double wall_s() { return static_cast<double>(now_ns()) / 1e9; }

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Accumulates set-up and run-phase host time into an Iteration.  Each run
// phase is one root span of the traced run.
class PhaseClock {
 public:
  explicit PhaseClock(Iteration& it) : it_(it) {}

  template <typename F>
  void setup(F&& f) {
    const double t0 = wall_s();
    f();
    it_.setup_s += wall_s() - t0;
  }

  template <typename F>
  void run(F&& f) {
    const double c0 = cpu_s();
    const double t0 = wall_s();
    {
      ScopedSpan root("workload.run");
      f();
    }
    it_.run_s += wall_s() - t0;
    it_.cpu_s += cpu_s() - c0;
  }

 private:
  Iteration& it_;
};

void check(Iteration& it, bool ok, const std::string& what) {
  if (!ok) it.failures.push_back(what);
}

// Sum of a registry counter over all of its label sets.
double sum_metric(const obs::MetricsSnapshot& snap, const std::string& name) {
  double total = 0;
  for (const obs::MetricCell& c : snap.cells) {
    if (c.column == name ||
        (c.column.size() > name.size() &&
         c.column.compare(0, name.size(), name) == 0 &&
         c.column[name.size()] == '{')) {
      total += std::strtod(c.value.c_str(), nullptr);
    }
  }
  return total;
}

// The census run's verbs/fabric counters (only the metrics hub sees them).
void note_census(Stats& s, const obs::MetricsSnapshot& snap) {
  s.census("verbs.completions", sum_metric(snap, "verbs.completions"));
  s.census("verbs.errors", sum_metric(snap, "verbs.errors"));
  s.census("fabric.forwarded", sum_metric(snap, "fabric.delivered"));
}

void note_device(Stats& s, const rnic::Rnic& dev) {
  s.count("rnic.msgs", static_cast<double>(dev.counters().rx_msgs_total +
                                           dev.counters().tx_msgs_total));
}

// WQEs served: requests the responder device received.  Every workload's
// WQEs target responders the driver can reach, so this counts the verbs
// work without the obs hub that counting completions needs.
void note_served(Stats& s, const rnic::Rnic& responder) {
  s.count("verbs.served",
          static_cast<double>(responder.counters().rx_msgs_total));
}

void note_faults(Stats& s, const faults::FaultStats& fs) {
  s.count("faults.delivered", static_cast<double>(fs.delivered));
  s.count("faults.lost", static_cast<double>(fs.total_lost()));
  s.count("faults.ge_steps", static_cast<double>(fs.ge_steps));
  s.note("faults.ge_bad_steps", static_cast<double>(fs.ge_bad_steps));
}

void note_reliability(Stats& s, const verbs::QpReliabilityStats& rs) {
  s.count("verbs.timeouts", static_cast<double>(rs.timeouts));
  s.count("verbs.retransmits", static_cast<double>(rs.retransmits));
  s.count("verbs.flushed", static_cast<double>(rs.flushed));
  s.count("verbs.failed", static_cast<double>(rs.flushed));
  s.note("verbs.rnr_retries", static_cast<double>(rs.rnr_retries));
}

std::vector<double> as_doubles(const std::vector<int>& v) {
  return std::vector<double>(v.begin(), v.end());
}

// ---------------------------------------------------------------------------
// covert_lossy: framed priority-channel cells of fault_sweep under
// Gilbert-Elliott burst loss, trials in parallel through the harness.

Iteration covert_lossy(const Options& o) {
  Iteration it;
  PhaseClock clk(it);

  // One 28-bit segment (7 Hamming codewords) per trial.  The counter
  // interval (= one bit) is a sixteenth of fault_sweep's 2 ms so a trial
  // lasts well under a second of host time.  The mean burst and the QP
  // timer scale with it (fault_sweep: 500 us each against 2 ms bits).  An
  // unscaled 500 us timer would stall a flow for four bits per loss, and
  // the few losses a trial sees would swing its work by 10% from seed to
  // seed.
  const std::size_t data_bits = 28;
  const sim::SimDur interval = sim::us(125);
  const std::vector<double> losses = {0.01, 0.02};
  const std::size_t trials_per_cell = o.smoke ? 1 : 2;

  struct Trial {
    double loss;
    std::uint64_t seed;
    std::unique_ptr<covert::PriorityCovertChannel> ch;
    std::vector<int> data;
    covert::FramedRun run;
  };
  std::vector<Trial> trials;
  for (double loss : losses) {
    for (std::size_t t = 0; t < trials_per_cell; ++t) {
      trials.push_back(Trial{
          loss, harness::derive_seed(o.seed, trials.size()), nullptr, {}, {}});
    }
  }

  clk.setup([&] {
    for (Trial& t : trials) {
      covert::PriorityChannelConfig cfg;
      cfg.model = rnic::DeviceModel::kCX5;
      cfg.seed = t.seed;
      cfg.counter_interval = interval;
      cfg.fault_plan = faults::FaultPlan::bursty_loss(t.loss, interval / 4,
                                                      t.seed ^ 0xfa017ull);
      cfg.qp_timeout = interval / 4;
      cfg.qp_retry_cnt = 7;
      t.ch = std::make_unique<covert::PriorityCovertChannel>(cfg);
      sim::Xoshiro256 payload_rng(t.seed);
      t.data = covert::random_bits(data_bits, payload_rng);
    }
  });

  SpanId sweep_span = kNoSpan;
  harness::SweepRunner sweep;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    char label[32];
    std::snprintf(label, sizeof label, "framed@%.0f%%/%zu",
                  100 * trials[i].loss, i);
    sweep.add(label, [&trials, &sweep_span, i](harness::TrialContext&) {
      ScopedTrial trial(static_cast<std::uint32_t>(i + 1));
      ScopedSpan span("harness.trial", sweep_span);
      Trial& t = trials[i];
      ScopedSpan frame("covert.frame");
      t.run = covert::transmit_framed(
          [&t](const std::vector<int>& bits) {
            ScopedSpan tx("covert.transmit");
            return t.ch->transmit(bits);
          },
          t.data);
      return harness::Record{};
    });
  }
  harness::SweepRunner::Options sopts;
  sopts.jobs = kLossyJobs;
  sopts.obs = o.census;
  harness::SweepReport rep;
  clk.run([&] {
    ScopedSpan span("harness.sweep");
    sweep_span = span.id();
    rep = sweep.run(sopts);
  });

  Stats& s = it.stats;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    Trial& t = trials[i];
    const std::string p = "t" + std::to_string(i) + ".";
    revng::Testbed& bed = t.ch->testbed();
    s.count("sim.events", static_cast<double>(bed.sched().events_processed()));
    s.note(p + "sim_end_ps", static_cast<double>(bed.sched().now()));
    note_device(s, bed.server().device());
    note_served(s, bed.server().device());
    for (std::size_t c = 0; c < bed.client_count(); ++c) {
      note_device(s, bed.client(c).device());
    }
    const faults::FaultStats fs = t.ch->fault_stats();
    const verbs::QpReliabilityStats rs = t.ch->reliability_stats();
    note_faults(s, fs);
    note_reliability(s, rs);
    s.note_all(p + "recovered", as_doubles(t.run.data_recovered));
    s.note_all(p + "raw_received", as_doubles(t.run.raw.received));
    s.note(p + "corrected", static_cast<double>(t.run.codewords_corrected));
    s.note(p + "elapsed_ps", static_cast<double>(t.run.raw.elapsed));
    s.note(p + "residual", t.run.residual_error());

    check(it, t.run.data_recovered.size() == t.data.size(),
          p + "decoded frame length differs from the sent length");
    check(it, fs.total_lost() == 0 || rs.retransmits > 0,
          p + "messages were lost but nothing was retransmitted");
    if (o.census) note_census(s, rep.trials[i].metrics);
    it.host.trial_s.push_back(rep.trials[i].wall_ms / 1e3);
  }
  it.host.sweep_wall_s = rep.total_wall_ms / 1e3;
  it.host.jobs = static_cast<unsigned>(rep.jobs);
  return it;
}

// ---------------------------------------------------------------------------
// snoop_train: fig13_snoop_classifier through its public APIs.

Iteration snoop_train(const Options& o) {
  Iteration it;
  PhaseClock clk(it);
  obs::Hub hub;
  std::optional<obs::ScopedHub> scoped;
  if (o.census) scoped.emplace(&hub);

  const std::size_t train_per_class = o.smoke ? 2 : 6;
  const std::size_t test_per_class = o.smoke ? 1 : 2;
  const int epochs = o.smoke ? 2 : 30;

  side::SnoopConfig cfg;
  cfg.model = rnic::DeviceModel::kCX4;
  cfg.seed = o.seed;
  std::unique_ptr<side::SnoopAttack> attack;
  clk.setup([&] { attack = std::make_unique<side::SnoopAttack>(cfg); });

  analysis::Dataset train, test;
  std::size_t argmin_ok = 0;
  double nc_acc = 0, mlp_acc = 0;
  clk.run([&] {
    {
      ScopedSpan span("side.build_dataset");
      train = attack->build_dataset(train_per_class, 1);
    }
    {
      ScopedSpan span("side.build_dataset");
      test = attack->build_dataset(test_per_class, 1);
    }
    {
      ScopedSpan span("side.argmin");
      for (std::size_t i = 0; i < test.size(); ++i) {
        argmin_ok += side::SnoopAttack::argmin_candidate(cfg, test.x[i]) ==
                     static_cast<std::size_t>(test.y[i]);
      }
    }
    {
      ScopedSpan span("analysis.zscore");
      for (auto& x : train.x) analysis::normalize_zscore(x);
      for (auto& x : test.x) analysis::normalize_zscore(x);
    }
    analysis::NearestCentroid nc;
    {
      ScopedSpan span("analysis.centroid_fit");
      nc.fit(train);
    }
    {
      ScopedSpan span("analysis.eval");
      nc_acc = nc.evaluate(test);
    }
    analysis::Mlp::Config mcfg;
    mcfg.layers = {static_cast<int>(cfg.observation_points), 64,
                   static_cast<int>(cfg.candidates)};
    mcfg.epochs = epochs;
    mcfg.weight_decay = 0.002;
    mcfg.seed = o.seed + 6;
    analysis::Mlp mlp(mcfg);
    {
      ScopedSpan span("analysis.mlp_fit");
      mlp.fit(train);
    }
    {
      ScopedSpan span("analysis.eval");
      mlp_acc = mlp.evaluate(test);
    }
  });

  Stats& s = it.stats;
  rnic::Rnic& dev = attack->server_device();
  s.count("sim.events", static_cast<double>(dev.scheduler().events_processed()));
  note_device(s, dev);
  note_served(s, dev);
  s.count("side.traces", static_cast<double>(train.size() + test.size()));
  s.count("analysis.mlp_examples",
          static_cast<double>(train.size()) * epochs);
  bool finite = true;
  for (const analysis::Dataset* d : {&train, &test}) {
    for (const auto& x : d->x) {
      finite = finite && x.size() == cfg.observation_points &&
               std::all_of(x.begin(), x.end(),
                           [](double v) { return std::isfinite(v); });
      s.note_all("trace", x);
    }
  }
  s.note("acc.argmin", static_cast<double>(argmin_ok));
  s.note("acc.centroid", nc_acc);
  s.count("analysis.mlp_accuracy", mlp_acc);
  check(it, finite, "a trace does not have 257 finite points");
  check(it, o.smoke || mlp_acc >= kSnoopAccuracyFloor,
        "MLP accuracy below the recorded floor");
  if (o.census) note_census(s, hub.metrics().snapshot());
  return it;
}

// ---------------------------------------------------------------------------
// cloud_fabric: cloud_scale scaled up on the windowed engine — 8 racks
// behind a full ToR mesh, closed-loop tenants: on every rack three quarters
// READ from the next rack's server and one quarter WRITE to rack 0's server
// (an 8-to-1 incast).

// Parent for spans opened by actors on engine worker threads: the chunk
// span the driver thread has open.
std::atomic<SpanId> g_chunk_span{kNoSpan};

bool cloud_post(cloud::Conn& c, verbs::WrOpcode op, std::uint32_t len) {
  ScopedSpan span("verbs.post", g_chunk_span.load(std::memory_order_relaxed));
  return cloud::post_one(c, op, len);
}

Iteration cloud_fabric(const Options& o) {
  Iteration it;
  PhaseClock clk(it);
  obs::Hub hub;
  std::optional<obs::ScopedHub> scoped;
  if (o.census) scoped.emplace(&hub);

  constexpr std::size_t kRacks = 8;
  constexpr std::uint32_t kBytes = 2u << 10;
  constexpr std::uint32_t kDepth = 4;
  const std::size_t tenants = o.smoke ? 64 : 1024;
  const sim::SimDur chunk = sim::us(10);
  const sim::SimTime t0 = sim::us(20);  // warm-up: pipelines fill
  const sim::SimTime t_end = t0 + (o.smoke ? sim::us(200) : sim::ms(5));
  // Tenant i sits on rack i % kRacks; every fourth tenant of a rack writes.
  const auto writer = [](std::size_t i) { return (i / kRacks) % 4 == 3; };

  std::unique_ptr<sim::Engine> eng;
  std::unique_ptr<fabric::Topology> topo;
  std::vector<fabric::SwitchId> tor(kRacks);
  std::vector<std::unique_ptr<verbs::Context>> cctx(kRacks), sctx(kRacks);
  std::vector<cloud::Conn> conn;
  clk.setup([&] {
    sim::Engine::Options eopts;
    eopts.shards = kCloudShards;
    eng = std::make_unique<sim::Engine>(eopts);
    const auto shard_of = [&](std::size_t rack) {
      return static_cast<sim::ShardId>(rack % eng->shard_count());
    };
    sim::Xoshiro256 rng(o.seed);
    const rnic::DeviceProfile prof =
        rnic::make_profile(rnic::DeviceModel::kCX5);
    fabric::Topology::Builder b(*eng);
    std::vector<rnic::NodeId> client(kRacks), server(kRacks);
    for (std::size_t r = 0; r < kRacks; ++r) {
      client[r] = b.add_host(prof, rng.fork(), shard_of(r));
      server[r] = b.add_host(prof, rng.fork(), shard_of(r));
      fabric::SwitchSpec spec;
      spec.buffer_bytes = 4u << 20;
      spec.pfc_xoff_bytes = 0;  // deep lossless pool, PFC off
      spec.name = "tor" + std::to_string(r);
      tor[r] = b.add_switch(spec, shard_of(r));
    }
    const auto access = fabric::LinkSpec::symmetric(sim::ns(500), 100.0);
    const auto mesh = fabric::LinkSpec::symmetric(sim::us(1), 100.0);
    for (std::size_t r = 0; r < kRacks; ++r) {
      b.link(fabric::NodeRef::host(client[r]), fabric::NodeRef::sw(tor[r]),
             access);
      b.link(fabric::NodeRef::host(server[r]), fabric::NodeRef::sw(tor[r]),
             access);
      for (std::size_t q = 0; q < r; ++q) {
        b.link(fabric::NodeRef::sw(tor[q]), fabric::NodeRef::sw(tor[r]), mesh);
      }
    }
    topo = b.build();
    for (std::size_t r = 0; r < kRacks; ++r) {
      cctx[r] = std::make_unique<verbs::Context>(
          *topo, topo->host(client[r]), "c" + std::to_string(r));
      sctx[r] = std::make_unique<verbs::Context>(
          *topo, topo->host(server[r]), "s" + std::to_string(r));
    }
    verbs::QpConfig qp;
    qp.max_send_wr = 2 * kDepth;
    conn.reserve(tenants);
    for (std::size_t i = 0; i < tenants; ++i) {
      const std::size_t r = i % kRacks;
      const std::size_t dst = writer(i) ? 0 : (r + 1) % kRacks;
      conn.push_back(cloud::connect(*cctx[r], *sctx[dst], 1, qp, 64u << 10));
    }
  });

  // Per-tenant slots are written only by that tenant's actor (one shard).
  std::vector<std::uint64_t> ops(tenants, 0), completions(tenants, 0),
      errors(tenants, 0);
  std::vector<std::uint8_t> done(tenants, 0);
  sim::Engine& e = *eng;
  auto actor = [&](std::size_t i) -> sim::Task {
    cloud::Conn& c = conn[i];
    const verbs::WrOpcode op =
        writer(i) ? verbs::WrOpcode::kRdmaWrite : verbs::WrOpcode::kRdmaRead;
    for (std::uint32_t d = 0; d < kDepth; ++d) cloud_post(c, op, kBytes);
    verbs::Wc wc;
    while (c.qp().outstanding() > 0) {
      co_await c.cq().wait(1);
      while (c.cq().poll_one(&wc)) {
        completions[i] += 1;
        if (wc.status != rnic::WcStatus::kSuccess) {
          errors[i] += 1;
        } else if (wc.completed_at >= t0 && wc.completed_at < t_end) {
          ops[i] += 1;
        }
        if (e.local_now() < t_end) cloud_post(c, op, kBytes);
      }
    }
    done[i] = 1;
  };
  for (std::size_t i = 0; i < tenants; ++i) {
    e.spawn(actor(i), static_cast<sim::ShardId>((i % kRacks) %
                                                e.shard_count()));
  }

  clk.run([&] {
    const auto all_done = [&] {
      return std::all_of(done.begin(), done.end(),
                         [](std::uint8_t d) { return d != 0; });
    };
    // Drain deadline: a WQE that never completes (a drop with no QP timer)
    // ends the run with the outstanding check failing, not a hang.
    const sim::SimTime t_stop = t_end + sim::ms(1);
    for (sim::SimTime t = chunk; !all_done() && t <= t_stop; t += chunk) {
      ScopedSpan span("sim.engine.chunk");
      g_chunk_span.store(span.id(), std::memory_order_relaxed);
      e.run_until(t);
    }
    g_chunk_span.store(kNoSpan, std::memory_order_relaxed);
  });

  Stats& s = it.stats;
  s.count("sim.events", static_cast<double>(e.events_processed()));
  s.count("sim.engine.windows", static_cast<double>(e.windows_run()));
  s.count("sim.engine.mail", static_cast<double>(e.mail_delivered()));
  s.note("sim_end_ps", static_cast<double>(e.now()));
  std::uint64_t total_ops = 0, total_completions = 0, total_errors = 0,
                min_ops = ~std::uint64_t{0}, outstanding = 0, peak = 0;
  for (std::size_t i = 0; i < tenants; ++i) {
    total_ops += ops[i];
    total_completions += completions[i];
    total_errors += errors[i];
    min_ops = std::min(min_ops, ops[i]);
    outstanding += conn[i].qp().outstanding();
  }
  s.note_all("tenant_ops", std::vector<double>(ops.begin(), ops.end()));
  s.note("ops", static_cast<double>(total_ops));
  s.note("completions", static_cast<double>(total_completions));
  s.note("errors", static_cast<double>(total_errors));
  s.count("verbs.outstanding", static_cast<double>(outstanding));
  s.count("verbs.failed", static_cast<double>(total_errors + outstanding));
  for (std::size_t r = 0; r < kRacks; ++r) {
    note_device(s, cctx[r]->device());
    note_device(s, sctx[r]->device());
    note_served(s, sctx[r]->device());
    const fabric::SwitchStats& ss = topo->switch_stats(tor[r]);
    s.note("tor" + std::to_string(r) + ".forwarded",
           static_cast<double>(ss.forwarded));
    s.count("fabric.drops", static_cast<double>(ss.drops));
    s.count("fabric.pause_events", static_cast<double>(ss.pause_events));
    peak = std::max(peak, ss.peak_buffer_bytes);
  }
  s.count("fabric.peak_buffer_kb", static_cast<double>(peak) / 1024.0);
  it.host.engine_workers = e.workers();

  check(it, min_ops > 0, "a tenant completed no operation");
  check(it, outstanding == 0, "WQEs still outstanding at the end");
  check(it, s.get("fabric.drops") == 0, "the fabric dropped messages");
  if (o.census) {
    note_census(s, hub.metrics().snapshot());
    check(it, s.get("verbs.completions") ==
                  static_cast<double>(total_completions),
          "census completions differ from the tenants' own count");
  }
  return it;
}

// ---------------------------------------------------------------------------
// defense_loop: defense_closed_loop at its 1.9 Mpps operating point —
// open-loop baseline, static sender, adaptive sender, benign reader.

namespace ct = ragnar::covert::transport;

constexpr sim::SimDur kWindow = sim::ms(20);
constexpr double kThrottleGbps = 0.25;
constexpr std::size_t kCleanToLift = 6;
constexpr double kOperatingMpps = 1.9;
constexpr double kOpenLoopMpps = 8.0;

std::vector<std::uint8_t> make_payload(std::size_t bytes, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> p(bytes);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
  return p;
}

// Drains the trial's streaming sink into the OnlinePipeline once per window
// and feeds its verdicts to the shared Enforcer (offset half a window off
// the HarmonicMonitor's tick, as in defense_closed_loop).
class OnlineDriver {
 public:
  OnlineDriver(sim::Scheduler& sched, const defense::online::OnlineConfig& det,
               defense::Enforcer& enf)
      : sched_(sched), pipe_(det), enf_(enf) {}

  void start(sim::SimDur period) {
    period_ = period;
    sched_.after(period_ / 2, [this] { tick(); });
  }
  const defense::online::OnlinePipeline& pipe() const { return pipe_; }

 private:
  void tick() {
    {
      ScopedSpan span("defense.consume");
      if (obs::StreamSink* sink = obs::stream()) pipe_.consume(*sink);
      pipe_.emit_verdicts(enf_, sched_.now());
    }
    sched_.after(period_, [this] { tick(); });
  }

  sim::Scheduler& sched_;
  defense::online::OnlinePipeline pipe_;
  defense::Enforcer& enf_;
  sim::SimDur period_ = 0;
};

obs::Hub::Config streaming_hub() {
  obs::Hub::Config cfg;
  cfg.streaming = true;
  return cfg;
}

void note_stream(Stats& s, obs::Hub& hub) {
  s.count("obs.stream.published",
          static_cast<double>(hub.stream()->published_total()));
  s.count("obs.stream.dropped",
          static_cast<double>(hub.stream()->dropped_total()));
}

// One covert transfer against the closed loop (or open loop), in a world of
// its own: channel, detectors, enforcer, transport and a streaming obs hub,
// installed while the world is built and while it runs.
struct CovertTrial {
  CovertTrial(bool adaptive, bool enforce, const char* prefix)
      : adaptive(adaptive), enforce(enforce), prefix(prefix) {}

  bool adaptive, enforce;
  const char* prefix;
  obs::Hub hub{streaming_hub()};
  std::unique_ptr<covert::UliCovertChannel> ch;
  std::unique_ptr<defense::HarmonicMonitor> mon;
  std::unique_ptr<defense::Enforcer> enf;
  std::unique_ptr<OnlineDriver> online;
  std::unique_ptr<ct::SchedulerClock> clock;
  std::unique_ptr<ct::FramedChannelLink> data;
  std::unique_ptr<ct::ModeledFeedbackLink> feedback;
  std::unique_ptr<ct::CovertTransport> transport;
  std::vector<std::uint8_t> payload;
  ct::TransferReport report;
};

void build(CovertTrial& t, const Options& o) {
  // The channel, detectors and feedback link keep defense_closed_loop's
  // default seed, and the seed picks the open-loop and static senders'
  // payloads.  The adaptive sender's round count depends on its payload
  // (7 or 9 channel transmits, ~15% of the iteration's host time), and
  // seeded physics moves every trial's, so both stay fixed: the host time
  // of one iteration must not depend on the seed.
  const std::uint64_t seed = kDefenseSeed;
  obs::ScopedHub scoped(&t.hub);
  const double thr = t.enforce ? kOperatingMpps : kOpenLoopMpps;
  covert::UliChannelConfig uli = covert::UliChannelConfig::best_for(
      rnic::DeviceModel::kCX4, covert::UliChannelKind::kInterMr, seed);
  uli.ambient_intensity = 0;
  // Half defense_closed_loop's 60 us: an iteration takes half the host
  // time, and the CLOSED-LOOP and ADAPTIVE conditions still hold (at 20 us
  // and below they do not).
  uli.bit_period = sim::us(30);
  uli.warmup_bits = 8;
  uli.rx_read_size = 256;
  uli.rx_queue_depth = 3;
  t.ch = std::make_unique<covert::UliCovertChannel>(uli);

  defense::HarmonicPolicy pol;
  pol.grain2_stream_mpps_cap = thr;
  t.mon = std::make_unique<defense::HarmonicMonitor>(
      t.ch->scheduler(), t.ch->server_device(), kWindow, pol);
  defense::EnforcerPolicy epol;
  epol.throttle_gbps = kThrottleGbps;
  epol.clean_windows_to_lift = kCleanToLift;
  t.enf = std::make_unique<defense::Enforcer>(epol);
  defense::online::OnlineConfig det;
  det.grain2_stream_mpps_cap = thr;
  det.grain4_threshold = 1.1;
  t.online = std::make_unique<OnlineDriver>(t.ch->scheduler(), det, *t.enf);
  if (t.enforce) {
    t.enf->attach(&t.ch->server_device().control());
    t.mon->attach_enforcer(t.enf.get(), /*drive_windows=*/true);
    t.online->start(kWindow);
  }
  t.mon->start();

  t.clock = std::make_unique<ct::SchedulerClock>(t.ch->scheduler());
  covert::UliCovertChannel* chp = t.ch.get();
  t.data = std::make_unique<ct::FramedChannelLink>(
      [chp](const std::vector<int>& bits) {
        ScopedSpan span("covert.transmit");
        return chp->transmit(bits);
      },
      covert::FrameConfig{});
  ct::ModeledFeedbackLink::Config fb;
  fb.seed = seed ^ 0xfeedbacULL;
  t.feedback = std::make_unique<ct::ModeledFeedbackLink>(*t.clock, fb);
  const ct::Key master{0x5261676e617231ULL, uli.seed};
  ct::TransportConfig tcfg;
  tcfg.arq.burst = 1;
  tcfg.arq.max_retries = 4;
  if (t.adaptive) {
    tcfg.pacing.enabled = true;
    tcfg.pacing.gap_step = sim::ms(80);
    tcfg.pacing.backoff_factor = 2.0;
    tcfg.pacing.gap_max = sim::ms(160);
    tcfg.pacing.clean_rounds_to_probe = 4;
  }
  t.transport = std::make_unique<ct::CovertTransport>(*t.data, *t.feedback,
                                                      *t.clock, master, tcfg);
  t.payload = make_payload(kDefensePayloadBytes,
                           (t.adaptive ? seed : o.seed) ^ 0xf11eULL);
}

void run(CovertTrial& t) {
  obs::ScopedHub scoped(&t.hub);
  ScopedSpan span("covert.transport");
  t.report = t.transport->transfer(t.payload, 0x7a);
}

void note(Iteration& it, CovertTrial& t) {
  const std::string p = t.prefix;
  const ct::TransferReport& r = t.report;
  Stats& s = it.stats;
  s.count("sim.events",
          static_cast<double>(t.ch->scheduler().events_processed()));
  note_device(s, t.ch->server_device());
  note_served(s, t.ch->server_device());
  note_reliability(s, t.ch->reliability_stats());
  note_stream(s, t.hub);
  s.count("covert.transport.rounds", static_cast<double>(r.rounds));
  s.count("covert.transport.retransmits", static_cast<double>(r.retransmits));
  s.count("defense.samples",
          static_cast<double>(t.online->pipe().samples_consumed()));
  s.count("defense.verdicts", static_cast<double>(t.enf->verdicts_observed()));
  s.count("defense.flagged", static_cast<double>(t.enf->verdicts_flagged()));
  s.count("defense.actions", static_cast<double>(t.enf->actions_applied() +
                                                 t.enf->actions_lifted()));
  s.note(p + "goodput_bps", r.goodput_bps());
  s.note(p + "outcome", static_cast<double>(r.outcome));
  s.note(p + "delivered", static_cast<double>(r.delivered_bytes));
  s.note(p + "garbled", static_cast<double>(r.garbled_slots));
  s.note(p + "acks_lost", static_cast<double>(r.acks_lost));
  s.note(p + "backoffs", static_cast<double>(r.pace_backoffs));
  s.note(p + "probes", static_cast<double>(r.pace_probes));
  s.note(p + "elapsed_ps", static_cast<double>(r.elapsed()));
  s.note(p + "monitor_windows", static_cast<double>(t.mon->windows()));
  it.host.footprint_kb = std::max(
      it.host.footprint_kb, t.online->pipe().footprint_bytes() / 1024.0);
  note_census(s, t.hub.metrics().snapshot());
}

// The benign 4 KiB reader under the same monitor and enforcer.
struct BenignTrial {
  obs::Hub hub{streaming_hub()};
  std::unique_ptr<revng::Testbed> bed;
  std::unique_ptr<defense::HarmonicMonitor> mon;
  std::unique_ptr<defense::Enforcer> enf;
  std::unique_ptr<revng::Flow> flow;
};

void build(BenignTrial& t, const Options& o) {
  obs::ScopedHub scoped(&t.hub);
  t.bed = std::make_unique<revng::Testbed>(rnic::DeviceModel::kCX4,
                                           o.seed + 1, 1);
  defense::HarmonicPolicy pol;
  pol.grain2_stream_mpps_cap = kOperatingMpps;
  t.mon = std::make_unique<defense::HarmonicMonitor>(
      t.bed->sched(), t.bed->server().device(), sim::ms(1), pol);
  t.enf = std::make_unique<defense::Enforcer>(
      defense::EnforcerPolicy{kThrottleGbps, kCleanToLift});
  t.enf->attach(&t.bed->server().device().control());
  t.mon->attach_enforcer(t.enf.get(), /*drive_windows=*/true);
  t.mon->start();
  revng::FlowSpec benign;
  benign.opcode = verbs::WrOpcode::kRdmaRead;
  benign.msg_size = 4096;
  benign.qp_num = 1;
  benign.depth_per_qp = 2;
  benign.duration = sim::ms(8);
  t.flow = std::make_unique<revng::Flow>(*t.bed, 0, benign);
}

void run(BenignTrial& t) {
  obs::ScopedHub scoped(&t.hub);
  ScopedSpan span("sim.run");
  t.bed->sched().run_while([&t] { return !t.flow->finished(); });
}

// Returns the benign reader's alarm rate.
double note(Iteration& it, BenignTrial& t) {
  Stats& s = it.stats;
  const rnic::NodeId tenant = t.bed->client(0).device().node();
  s.count("sim.events",
          static_cast<double>(t.bed->sched().events_processed()));
  note_device(s, t.bed->server().device());
  note_served(s, t.bed->server().device());
  note_device(s, t.bed->client(0).device());
  note_stream(s, t.hub);
  s.count("defense.actions", static_cast<double>(t.enf->actions_applied() +
                                                 t.enf->actions_lifted()));
  s.count("defense.verdicts", static_cast<double>(t.enf->verdicts_observed()));
  s.count("defense.flagged", static_cast<double>(t.enf->verdicts_flagged()));
  const double alarm = t.mon->flag_rate(tenant);
  s.note("benign.alarm", alarm);
  note_census(s, t.hub.metrics().snapshot());
  return alarm;
}

Iteration defense_loop(const Options& o) {
  Iteration it;
  PhaseClock clk(it);
  // No smaller smoke size: one segment per transfer is the minimum.
  CovertTrial base(false, false, "baseline."), stat(false, true, "static."),
      adapt(true, true, "adaptive.");
  BenignTrial benign;
  clk.setup([&] {
    build(base, o);
    build(stat, o);
    build(adapt, o);
    build(benign, o);
  });

  // The trials run through the harness as in defense_closed_loop, longest
  // first so that the two workers finish close together: the adaptive
  // sender on one, the static sender, the baseline and the benign reader
  // on the other.
  SpanId sweep_span = kNoSpan;
  harness::SweepRunner sweep;
  const auto add = [&sweep, &sweep_span](const char* label,
                                         std::uint32_t trial, auto body) {
    sweep.add(label, [&sweep_span, trial, body](harness::TrialContext&) {
      ScopedTrial scope(trial);
      ScopedSpan span("harness.trial", sweep_span);
      body();
      return harness::Record{};
    });
  };
  add("adaptive", 3, [&adapt] { run(adapt); });
  add("static", 2, [&stat] { run(stat); });
  add("baseline", 1, [&base] { run(base); });
  add("benign", 4, [&benign] { run(benign); });
  harness::SweepRunner::Options sopts;
  sopts.jobs = kDefenseJobs;
  harness::SweepReport rep;
  clk.run([&] {
    ScopedSpan span("harness.sweep");
    sweep_span = span.id();
    rep = sweep.run(sopts);
  });

  note(it, base);
  note(it, stat);
  note(it, adapt);
  const double alarm = note(it, benign);
  for (const harness::TrialResult& t : rep.trials) {
    it.host.trial_s.push_back(t.wall_ms / 1e3);
  }
  it.host.sweep_wall_s = rep.total_wall_ms / 1e3;
  it.host.jobs = static_cast<unsigned>(rep.jobs);

  // defense_closed_loop's contract at the operating point.
  const double free_bps = base.report.goodput_bps();
  const double cut =
      free_bps > 0
          ? std::max(0.0, 1.0 - stat.report.goodput_bps() / free_bps)
          : 0.0;
  const bool closed_ok =
      cut >= 0.80 && alarm <= 0.05 && stat.enf->actions_applied() > 0 &&
      stat.enf->verdicts_flagged() > 0 &&
      stat.online->pipe().samples_consumed() > 0;
  const bool adaptive_ok =
      adapt.report.goodput_bps() > 2.0 * stat.report.goodput_bps() &&
      adapt.report.complete();
  check(it, closed_ok, "CLOSED-LOOP condition does not hold");
  check(it, adaptive_ok, "ADAPTIVE condition does not hold");
  return it;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"covert_lossy", kLossyJobs, 0, covert_lossy},
      {"snoop_train", 1, 0, snoop_train},
      {"cloud_fabric", 1, kCloudShards, cloud_fabric},
      {"defense_loop", kDefenseJobs, 0, defense_loop},
  };
  return all;
}

}  // namespace perfbench
