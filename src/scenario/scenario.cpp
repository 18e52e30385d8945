#include "scenario/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/obs.hpp"

namespace ragnar::scenario {

bool parse_u64_strict(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  std::uint64_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;  // overflow
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

void Registry::add(const Scenario& s) {
  for (const Scenario& existing : scenarios_) {
    if (std::strcmp(existing.name, s.name) == 0) {
      std::fprintf(stderr,
                   "ragnar: duplicate scenario registration '%s'\n", s.name);
      std::abort();
    }
  }
  scenarios_.push_back(s);
}

const Scenario* Registry::find(const std::string& name) const {
  for (const Scenario& s : scenarios_) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<const Scenario*> Registry::all() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const Scenario& s : scenarios_) out.push_back(&s);
  std::sort(out.begin(), out.end(), [](const Scenario* a, const Scenario* b) {
    return std::strcmp(a->name, b->name) < 0;
  });
  return out;
}

namespace {

// Process-wide trace state for --trace: a hub installed on the main thread
// (pid 0 in the merged trace) plus the per-trial events drained from every
// run_sweep() call (pid = running trial number).  Written once at exit.
struct ProcessTrace {
  obs::Hub* hub = nullptr;
  std::string path;
  std::vector<obs::TraceEvent> sweep_events;
  std::uint64_t sweep_dropped = 0;
  std::uint32_t next_pid = 1;  // pid assignment across successive sweeps
};

ProcessTrace& process_trace() {
  static ProcessTrace t;
  return t;
}

void write_process_trace() {
  ProcessTrace& pt = process_trace();
  std::vector<obs::TraceEvent> all;
  std::uint64_t dropped = pt.sweep_dropped;
  if (pt.hub != nullptr && pt.hub->tracer() != nullptr) {
    dropped += pt.hub->tracer()->dropped();
    all = pt.hub->tracer()->take();  // main-thread events keep pid 0
  }
  all.insert(all.end(), pt.sweep_events.begin(), pt.sweep_events.end());
  if (obs::write_chrome_trace(pt.path, all, dropped)) {
    std::fprintf(stderr, "[obs] wrote Chrome trace %s (%zu events, %llu dropped)\n",
                 pt.path.c_str(), all.size(),
                 static_cast<unsigned long long>(dropped));
  } else {
    std::fprintf(stderr, "[obs] WARNING: could not write Chrome trace %s\n",
                 pt.path.c_str());
  }
}

}  // namespace

void arm_process_trace(const std::string& path) {
  ProcessTrace& pt = process_trace();
  if (pt.hub != nullptr) return;
  pt.path = path;
  obs::Hub::Config cfg;
  cfg.tracing = true;
  cfg.trace_capacity = 1 << 16;
  pt.hub = new obs::Hub(cfg);
  obs::install(pt.hub);
  std::atexit([] { write_process_trace(); });
}

void ScenarioContext::header(const char* experiment,
                             const char* paper_ref) const {
  std::printf("================================================================\n");
  std::printf("RAGNAR reproduction | %s\n", experiment);
  std::printf("paper reference     | %s\n", paper_ref);
  std::printf("seed=%llu  mode=%s\n", static_cast<unsigned long long>(seed),
              full ? "full" : "reduced");
  std::printf("================================================================\n");
}

harness::SweepRunner::Options ScenarioContext::sweep_options() const {
  harness::SweepRunner::Options o;
  o.jobs = jobs;
  o.base_seed = seed;
  // --trace arms the full observability stack per trial; off by default
  // so the trial closures schedule the exact pre-obs event sequence.
  o.obs = !trace_path.empty();
  o.trace = o.obs;
  return o;
}

harness::SweepReport ScenarioContext::run_sweep(harness::SweepRunner& sweep,
                                                const char* name) const {
  return run_sweep(sweep, name, sweep_options());
}

harness::SweepReport ScenarioContext::run_sweep(
    harness::SweepRunner& sweep, const char* name,
    const harness::SweepRunner::Options& o) const {
  const auto report = sweep.run(o);
  if (!trace_path.empty()) {
    // Fold this sweep's per-trial events into the process trace, one
    // Chrome-trace pid per trial, numbered across successive sweeps.
    ProcessTrace& pt = process_trace();
    for (const auto& t : report.trials) {
      pt.sweep_dropped += t.trace_dropped;
      for (obs::TraceEvent ev : t.trace) {
        ev.pid = pt.next_pid + static_cast<std::uint32_t>(t.index);
        pt.sweep_events.push_back(std::move(ev));
      }
    }
    pt.next_pid += static_cast<std::uint32_t>(report.trials.size());
  }
  std::fprintf(stderr,
               "[harness] %s: %zu trials on %zu jobs, wall %.0f ms "
               "(serial-equivalent %.0f ms, speedup %.2fx)\n",
               name, report.trials.size(), report.jobs, report.total_wall_ms,
               report.serial_wall_ms(),
               report.total_wall_ms > 0
                   ? report.serial_wall_ms() / report.total_wall_ms
                   : 0.0);
  if (!csv_dir.empty()) {
    const std::string path = report.write_csv(csv_dir, name);
    if (!path.empty()) {
      std::fprintf(stderr, "[harness] wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "[harness] WARNING: could not write CSV under %s\n",
                   csv_dir.c_str());
    }
  }
  if (!json_path.empty()) {
    // One file per scenario run, one entry per sweep (docs/HARNESS.md):
    // a scenario with several sweeps keeps all of them.
    if (!json_sweeps_.empty()) json_sweeps_ += ",\n";
    json_sweeps_ += "{\"sweep\": \"";
    json_sweeps_ += name;
    json_sweeps_ += "\", \"trials\": ";
    json_sweeps_ += report.to_json();
    json_sweeps_ += "}";
    write_json();
  }
  return report;
}

void ScenarioContext::finish() const {
  if (json_path.empty() || !json_sweeps_.empty()) return;
  if (write_json()) {
    std::fprintf(stderr, "[harness] no sweep ran: %s holds no trials\n",
                 json_path.c_str());
  }
}

bool ScenarioContext::write_json() const {
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[harness] WARNING: could not write JSON %s\n",
                 json_path.c_str());
    return false;
  }
  if (json_sweeps_.empty()) {
    std::fputs("[]\n", f);
  } else {
    std::fprintf(f, "[\n%s\n]\n", json_sweeps_.c_str());
  }
  std::fclose(f);
  return true;
}

}  // namespace ragnar::scenario
