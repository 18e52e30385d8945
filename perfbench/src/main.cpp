// Benchmark driver: runs one workload for a fixed host-time budget and
// prints every metric, with its unit, as one JSON object on the last line
// of stdout.
//
//   ragnar_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--smoke] [--trace-out FILE]
//
// A run is measured iterations until S seconds have passed.  Every iteration uses the same
// seed, so every one must reproduce the first one's digest of simulated
// statistics.  With --trace 1 a census iteration (an obs metrics hub
// installed, so the verbs/fabric counters only the hub sees are counted)
// comes first, and the measured iterations come in untraced/traced pairs;
// the traced ones record a span around each layer call and give the
// per-layer figures, the untraced ones the end-to-end figures.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: ragnar_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(v, &n)) {
      a.seed = n;
    } else if (flag == "--seconds" && parse_u64(v, &n) && n > 0) {
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && parse_u64(v, &n) && n <= 1) {
      a.trace = n == 1;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("bad flag or value: " + flag + " " + v).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The highest of p90/p99/p99.9 with at least ten samples beyond it (the
// maximum when there are fewer than 100 samples).
double tail(const std::vector<double>& v) {
  const double n = static_cast<double>(v.size());
  if (n >= 10000) return quantile(v, 0.999);
  if (n >= 1000) return quantile(v, 0.99);
  if (n >= 100) return quantile(v, 0.9);
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

class MetricsOut {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  body_.empty() ? "" : ",", name.c_str(), value, unit);
    body_ += buf;
  }
  const std::string& json() const { return body_; }

 private:
  std::string body_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Per-layer figures from the traced iterations' span summaries.
struct TracedFigures {
  std::vector<TraceSummary> runs;

  // Median over traced iterations of a per-iteration value.
  template <typename F>
  double per_run(F&& f) const {
    std::vector<double> v;
    for (const TraceSummary& s : runs) v.push_back(f(s));
    return median(v);
  }
  double total_ns(const std::string& layer) const {
    return per_run([&](const TraceSummary& s) {
      auto it = s.layers.find(layer);
      return it == s.layers.end() ? 0.0 : it->second.total_ns;
    });
  }
  double self_ns(const std::string& layer) const {
    return per_run([&](const TraceSummary& s) {
      auto it = s.layers.find(layer);
      return it == s.layers.end() ? 0.0 : it->second.self_ns;
    });
  }
  std::vector<double> pooled_ns(const std::string& layer) const {
    std::vector<double> v;
    for (const TraceSummary& s : runs) {
      auto it = s.layers.find(layer);
      if (it == s.layers.end()) continue;
      v.insert(v.end(), it->second.durations_ns.begin(),
               it->second.durations_ns.end());
    }
    return v;
  }
};

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

// Moves successive iterations across every CPU the process may use.  On a
// shared host some CPUs run slower than others for minutes at a time (a
// busy sibling hyperthread); a run left on one CPU would read slow or fast
// as a whole, while a run that visits them all has a steady median.
class CpuRotation {
 public:
  explicit CpuRotation(unsigned threads) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
    width_ = std::max<std::size_t>(1, threads);
  }

  // Pins the calling thread, and the threads the next iteration starts, to
  // the next `threads` CPUs in turn.
  void next() {
    if (cpus_.size() <= width_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t k = 0; k < width_; ++k) {
      CPU_SET(cpus_[(pos_ + k) % cpus_.size()], &set);
    }
    sched_setaffinity(0, sizeof set, &set);
    pos_ = (pos_ + 1) % cpus_.size();
  }

 private:
  std::vector<int> cpus_;
  std::size_t width_ = 1;
  std::size_t pos_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Keep freed memory in the process, so every iteration after the first
  // builds its worlds on pages already mapped.  Otherwise set-up time
  // mostly measures how fast the host maps fresh pages, which swung
  // defense_loop's set-up six-fold between quiet and busy minutes.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage(("unknown workload: " + args.workload).c_str());

  Options opts;
  opts.seed = args.seed;
  opts.smoke = args.smoke;

  // Census (traced run only): counts that only an obs metrics hub sees.
  // Its instrumentation makes it several times slower than an iteration,
  // so the untraced run goes without.
  std::optional<Iteration> census;
  if (args.trace) {
    opts.census = true;
    census = wl->run(opts);
    opts.census = false;
  }

  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
  std::vector<double> overhead;  // traced over untraced run_s, per pair
  TracedFigures tf;
  CpuRotation cpus(std::max(wl->jobs, wl->shards));
  const auto run_traced = [&] {
    set_recording(true);
    traced.push_back(wl->run(opts));
    set_recording(false);
    tf.runs.push_back(collect());
  };
  const std::size_t min_runs = args.smoke ? 1 : (args.trace ? 2 : 3);
  const std::int64_t t_start = now_ns();
  while (untraced.size() < min_runs ||
         (!args.smoke && now_ns() - t_start < args.seconds * 1e9)) {
    // Both iterations of a traced pair run on the same CPUs, and which of
    // them goes first alternates, so their ratio measures tracing rather
    // than a faster CPU or a warmer cache.
    cpus.next();
    const bool traced_first = args.trace && untraced.size() % 2 == 1;
    if (traced_first) run_traced();
    untraced.push_back(wl->run(opts));
    if (args.trace && !traced_first) run_traced();
    if (args.trace) {
      overhead.push_back(ratio(traced.back().run_s, untraced.back().run_s));
    }
  }
  for (const Iteration& it : untraced) {
    std::fprintf(stderr,
                 "perfbench: iteration run_s=%.4f cpu_s=%.4f setup_s=%.6f\n",
                 it.run_s, it.cpu_s, it.setup_s);
  }
  const Iteration& ref = census ? *census : untraced.front();
  const std::uint64_t digest = ref.stats.digest();
  std::vector<std::string> failures;
  const auto fail = [&failures](const std::string& what) {
    if (std::find(failures.begin(), failures.end(), what) == failures.end()) {
      failures.push_back(what);
    }
  };
  for (const std::string& f : ref.failures) fail(f);
  for (const std::vector<Iteration>* group : {&untraced, &traced}) {
    for (const Iteration& it : *group) {
      for (const std::string& f : it.failures) fail(f);
      if (it.stats.digest() != digest) {
        fail("an iteration's simulated statistics differ from the first "
             "one's (nondeterminism)");
      }
    }
  }
  if (!args.trace_out.empty() && args.trace &&
      !write_chrome_trace(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }

  const Stats& c = ref.stats;
  const double served = c.get("verbs.served");
  const double iterations =
      static_cast<double>(untraced.size() + traced.size());
  const double attempted = std::max(1.0, served * iterations);
  const double failed =
      failures.empty() ? c.get("verbs.failed") * iterations : attempted;

  std::vector<double> setup, run, cpu, rate;
  for (const Iteration& it : untraced) {
    setup.push_back(it.setup_s);
    run.push_back(it.run_s);
    cpu.push_back(it.cpu_s);
    rate.push_back(ratio(served, it.run_s));
  }
  for (const Iteration& it : traced) setup.push_back(it.setup_s);

  MetricsOut m;
  if (!args.trace) {
    m.add("setup_s", median(setup), "s");
    m.add("run_s", median(run), "s");
    m.add("cpu_s", median(cpu), "s");
    m.add("wqe_per_s", median(rate), "1/s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double events = c.get("sim.events");
    const double completions = c.get("verbs.completions");
    // sim: host time of the calls that run the simulation, per event.
    double sim_ns = 0;
    for (const char* layer : {"covert.transmit", "side.build_dataset",
                              "sim.engine.chunk", "sim.run"}) {
      sim_ns += tf.total_ns(layer);
    }
    m.add("sim.events", events, "count");
    m.add("sim.events_per_wqe", ratio(events, completions), "ratio");
    m.add("sim.ns_per_event", ratio(sim_ns, events), "ns");

    const double windows = c.get("sim.engine.windows");
    const std::vector<double> chunks = tf.pooled_ns("sim.engine.chunk");
    m.add("sim.engine.windows", windows, "count");
    m.add("sim.engine.events_per_window",
          windows > 0 ? ratio(events, windows) : 0, "ratio");
    m.add("sim.engine.mail_per_window",
          ratio(c.get("sim.engine.mail"), windows), "ratio");
    m.add("sim.engine.workers", ref.host.engine_workers, "count");
    m.add("sim.engine.chunk_ms.p50", quantile(chunks, 0.5) / 1e6, "ms");
    m.add("sim.engine.chunk_ms.tail", tail(chunks) / 1e6, "ms");
    m.add("sim.engine.chunk_samples", static_cast<double>(chunks.size()),
          "count");

    m.add("verbs.completions", completions, "count");
    m.add("verbs.served", served, "count");
    m.add("verbs.post_ns.p50", quantile(tf.pooled_ns("verbs.post"), 0.5),
          "ns");
    m.add("verbs.timeouts", c.get("verbs.timeouts"), "count");
    m.add("verbs.retransmits", c.get("verbs.retransmits"), "count");
    m.add("verbs.flushed", c.get("verbs.flushed"), "count");

    m.add("rnic.msgs", c.get("rnic.msgs"), "count");
    m.add("rnic.msgs_per_wqe", ratio(c.get("rnic.msgs"), completions),
          "ratio");

    m.add("fabric.forwarded", c.get("fabric.forwarded"), "count");
    m.add("fabric.peak_buffer_kb", c.get("fabric.peak_buffer_kb"), "KB");
    m.add("fabric.drops", c.get("fabric.drops"), "count");
    m.add("fabric.pause_events", c.get("fabric.pause_events"), "count");

    m.add("faults.delivered", c.get("faults.delivered"), "count");
    m.add("faults.lost", c.get("faults.lost"), "count");
    m.add("faults.ge_steps", c.get("faults.ge_steps"), "count");

    m.add("covert.transmit_s", tf.total_ns("covert.transmit") / 1e9, "s");
    m.add("covert.frame_self_ms", tf.self_ns("covert.frame") / 1e6, "ms");
    m.add("covert.transport.self_ms", tf.self_ns("covert.transport") / 1e6,
          "ms");
    m.add("covert.transport.rounds", c.get("covert.transport.rounds"),
          "count");
    m.add("covert.transport.retransmits",
          c.get("covert.transport.retransmits"), "count");

    const double traces = c.get("side.traces");
    m.add("side.trace_ms",
          ratio(tf.total_ns("side.build_dataset") / 1e6, traces), "ms");
    m.add("side.traces", traces, "count");

    const double fit_s = tf.total_ns("analysis.mlp_fit") / 1e9;
    m.add("analysis.mlp_fit_s", fit_s, "s");
    m.add("analysis.mlp_examples_per_s",
          ratio(c.get("analysis.mlp_examples"), fit_s), "1/s");
    m.add("analysis.eval_ms", tf.total_ns("analysis.eval") / 1e6, "ms");
    m.add("analysis.mlp_accuracy", c.get("analysis.mlp_accuracy"), "ratio");

    const std::vector<double> consume = tf.pooled_ns("defense.consume");
    m.add("defense.consume_us.p50", quantile(consume, 0.5) / 1e3, "us");
    m.add("defense.consume_us.tail", tail(consume) / 1e3, "us");
    m.add("defense.consume_samples", static_cast<double>(consume.size()),
          "count");
    m.add("defense.samples", c.get("defense.samples"), "count");
    m.add("defense.verdicts", c.get("defense.verdicts"), "count");
    m.add("defense.flagged", c.get("defense.flagged"), "count");
    m.add("defense.actions", c.get("defense.actions"), "count");
    m.add("defense.footprint_kb", ref.host.footprint_kb, "KB");

    const double published = c.get("obs.stream.published");
    const double dropped = c.get("obs.stream.dropped");
    m.add("obs.stream.published", published, "count");
    m.add("obs.stream.dropped", dropped, "count");
    m.add("obs.stream.drop_frac", ratio(dropped, published), "ratio");

    // Harness figures come from the untraced iterations.
    std::vector<double> trial_s, trial_max, eff;
    for (const Iteration& it : untraced) {
      if (it.host.trial_s.empty()) continue;
      trial_s.insert(trial_s.end(), it.host.trial_s.begin(),
                     it.host.trial_s.end());
      double serial = 0;
      for (double t : it.host.trial_s) serial += t;
      trial_max.push_back(
          *std::max_element(it.host.trial_s.begin(), it.host.trial_s.end()));
      eff.push_back(ratio(serial, it.host.jobs * it.host.sweep_wall_s));
    }
    m.add("harness.trial_s.p50", median(trial_s), "s");
    m.add("harness.trial_s.max", median(trial_max), "s");
    m.add("harness.parallel_eff", median(eff), "ratio");

    m.add("trace_overhead", median(overhead), "ratio");
    m.add("trace.unattributed_frac", tf.per_run([](const TraceSummary& s) {
            return ratio(s.root_ns - s.attributed_ns, s.root_ns);
          }),
          "ratio");
    m.add("fail_frac", ratio(failed, attempted), "ratio");
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::string fail_json;
  for (const std::string& f : failures) {
    fail_json += (fail_json.empty() ? "\"" : ",\"") + json_escape(f) + "\"";
  }
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"smoke\":%s,\"trace\":%s,"
      "\"digest\":\"%016llx\",\"failures\":[%s],\"iterations\":%zu,"
      "\"attempted\":%.0f,\"failed\":%.0f,"
      "\"build\":{\"compiler\":\"%s\",\"build_type\":\"%s\"},"
      "\"config\":{\"jobs\":%u,\"shards\":%u},"
      "\"metrics\":{%s}}\n",
      wl->name, static_cast<unsigned long long>(args.seed),
      args.smoke ? "true" : "false", args.trace ? "true" : "false",
      static_cast<unsigned long long>(digest), fail_json.c_str(),
      untraced.size() + traced.size(),
      attempted, failed, json_escape(__VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE, wl->jobs, wl->shards, m.json().c_str());
  return failures.empty() ? 0 : 1;
}
