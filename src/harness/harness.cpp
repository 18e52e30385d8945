#include "harness/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <thread>

namespace ragnar::harness {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// printf-append onto a string (the JSON renderer builds the document in
// memory so callers can embed it).
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt,
                                           ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                   ap2);
    out.resize(old + static_cast<std::size_t>(n));
  }
  va_end(ap2);
}

// Minimal JSON string escaping for labels / field values.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

// CSV fields are quoted only when they contain a delimiter.
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t trial_index) {
  // splitmix64 finalizer over the pair; the golden-ratio stride decorrelates
  // neighbouring trial indices even for base_seed = 0.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (trial_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Record::set(std::string key, std::string value) {
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  fields_.emplace_back(std::move(key), std::move(value));
}

void Record::set(std::string key, double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  set(std::move(key), std::string(buf));
}

void Record::set(std::string key, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  set(std::move(key), std::string(buf));
}

void Record::set(std::string key, std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, value);
  set(std::move(key), std::string(buf));
}

const std::string* Record::find(const std::string& key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double SweepReport::serial_wall_ms() const {
  double s = 0;
  for (const auto& t : trials) s += t.wall_ms;
  return s;
}

std::vector<std::string> SweepReport::metric_columns() const {
  std::vector<std::string> cols;
  for (const auto& t : trials) {
    for (const auto& cell : t.metrics.cells) {
      if (std::find(cols.begin(), cols.end(), cell.column) == cols.end()) {
        cols.push_back(cell.column);
      }
    }
  }
  return cols;
}

std::string SweepReport::write_csv(const std::string& dir,
                                   const std::string& name) const {
  if (dir.empty() || trials.empty()) return {};
  const std::string path = dir + "/" + name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return {};
  const bool any_faults =
      std::any_of(trials.begin(), trials.end(),
                  [](const TrialResult& t) { return t.faults_noted; });
  const bool any_stream =
      std::any_of(trials.begin(), trials.end(),
                  [](const TrialResult& t) { return t.stream_noted; });
  // Enforcement columns ride only on sweeps where a control port actually
  // fired (closed-loop runs): open-loop sweeps keep their exact schema.
  const bool any_actions =
      std::any_of(trials.begin(), trials.end(), [](const TrialResult& t) {
        return t.actions_applied != 0 || t.actions_lifted != 0;
      });
  const std::vector<std::string> mcols = metric_columns();
  std::fprintf(f, "label,index,seed,wall_ms,sim_end_ns");
  if (any_faults) {
    std::fprintf(f,
                 ",delivered,injected_drops,retransmits,rnr_retries"
                 ",corrupted,flap_dropped,reordered,ge_steps,ge_bad_steps");
  }
  if (any_stream) std::fprintf(f, ",stream_published,stream_dropped");
  if (any_actions) std::fprintf(f, ",actions_applied,actions_lifted");
  for (const auto& [k, v] : trials.front().record.fields()) {
    std::fprintf(f, ",%s", csv_escape(k).c_str());
  }
  for (const auto& c : mcols) std::fprintf(f, ",%s", csv_escape(c).c_str());
  std::fprintf(f, "\n");
  for (const auto& t : trials) {
    std::fprintf(f, "%s,%zu,%" PRIu64 ",%.3f,%.0f", csv_escape(t.label).c_str(),
                 t.index, t.seed, t.wall_ms, sim::to_ns(t.sim_end));
    if (any_faults) {
      std::fprintf(f,
                   ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                   ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64,
                   t.faults.delivered, t.faults.injected_drops,
                   t.faults.retransmits, t.faults.rnr_retries,
                   t.faults.corrupted, t.faults.flap_dropped,
                   t.faults.reordered, t.faults.ge_steps,
                   t.faults.ge_bad_steps);
    }
    if (any_stream) {
      std::fprintf(f, ",%" PRIu64 ",%" PRIu64, t.stream_published,
                   t.stream_dropped);
    }
    if (any_actions) {
      std::fprintf(f, ",%" PRIu64 ",%" PRIu64, t.actions_applied,
                   t.actions_lifted);
    }
    for (const auto& [k, v] : trials.front().record.fields()) {
      const std::string* mine = t.record.find(k);
      std::fprintf(f, ",%s", mine != nullptr ? csv_escape(*mine).c_str() : "");
    }
    for (const auto& c : mcols) {
      const std::string* cell = t.metrics.find(c);
      std::fprintf(f, ",%s", cell != nullptr ? csv_escape(*cell).c_str() : "");
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  return path;
}

std::string SweepReport::to_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto& t = trials[i];
    appendf(out,
            "  {\"label\": \"%s\", \"index\": %zu, \"seed\": %" PRIu64
            ", \"wall_ms\": %.3f, \"sim_end_ns\": %.0f",
            json_escape(t.label).c_str(), t.index, t.seed, t.wall_ms,
            sim::to_ns(t.sim_end));
    if (t.faults_noted) {
      appendf(out,
              ", \"delivered\": %" PRIu64 ", \"injected_drops\": %" PRIu64
              ", \"retransmits\": %" PRIu64 ", \"rnr_retries\": %" PRIu64
              ", \"corrupted\": %" PRIu64 ", \"flap_dropped\": %" PRIu64
              ", \"reordered\": %" PRIu64 ", \"ge_steps\": %" PRIu64
              ", \"ge_bad_steps\": %" PRIu64,
              t.faults.delivered, t.faults.injected_drops,
              t.faults.retransmits, t.faults.rnr_retries, t.faults.corrupted,
              t.faults.flap_dropped, t.faults.reordered, t.faults.ge_steps,
              t.faults.ge_bad_steps);
    }
    if (t.stream_noted) {
      appendf(out,
              ", \"stream_published\": %" PRIu64
              ", \"stream_dropped\": %" PRIu64,
              t.stream_published, t.stream_dropped);
    }
    if (t.actions_applied != 0 || t.actions_lifted != 0) {
      appendf(out,
              ", \"actions_applied\": %" PRIu64
              ", \"actions_lifted\": %" PRIu64,
              t.actions_applied, t.actions_lifted);
    }
    for (const auto& [k, v] : t.record.fields()) {
      appendf(out, ", \"%s\": \"%s\"", json_escape(k).c_str(),
              json_escape(v).c_str());
    }
    if (!t.metrics.empty()) {
      out += ", \"metrics\": {";
      for (std::size_t c = 0; c < t.metrics.cells.size(); ++c) {
        const auto& cell = t.metrics.cells[c];
        appendf(out, "%s\"%s\": \"%s\"", c ? ", " : "",
                json_escape(cell.column).c_str(),
                json_escape(cell.value).c_str());
      }
      out += "}";
    }
    out += i + 1 < trials.size() ? "},\n" : "}\n";
  }
  out += "]";
  return out;
}

void SweepReport::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "%s\n", to_json().c_str());
  std::fclose(f);
}

bool SweepReport::write_chrome_trace(const std::string& path) const {
  std::vector<obs::TraceEvent> all;
  std::uint64_t dropped = 0;
  for (const auto& t : trials) {
    all.insert(all.end(), t.trace.begin(), t.trace.end());
    dropped += t.trace_dropped;
  }
  if (all.empty()) return false;
  return obs::write_chrome_trace(path, all, dropped);
}

std::size_t resolve_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t SweepRunner::add(std::string label, TrialFn fn) {
  trials_.push_back(PendingTrial{std::move(label), std::move(fn)});
  return trials_.size() - 1;
}

SweepReport SweepRunner::run(const Options& opts) {
  SweepReport report;
  report.jobs = resolve_jobs(opts.jobs);
  report.trials.resize(trials_.size());
  const auto run_start = Clock::now();

  auto execute = [&](std::size_t index) {
    PendingTrial& pt = trials_[index];
    TrialContext ctx;
    ctx.index = index;
    ctx.seed = derive_seed(opts.base_seed, index);
    // Trial-local observability: the hub lives on this worker's stack and is
    // ambient only while the trial runs, so metrics/spans recorded by model
    // hooks are attributed to exactly one trial regardless of --jobs.
    std::unique_ptr<obs::Hub> hub;
    if (opts.obs) {
      obs::Hub::Config hcfg;
      hcfg.tracing = opts.trace;
      hcfg.trace_capacity = opts.trace_capacity;
      hcfg.streaming = opts.stream;
      hcfg.stream_capacity = opts.stream_capacity;
      hub = std::make_unique<obs::Hub>(hcfg);
      ctx.obs = hub.get();
    }
    const auto t0 = Clock::now();
    Record rec;
    {
      obs::ScopedHub ambient(hub.get());
      rec = pt.fn(ctx);
    }
    const auto t1 = Clock::now();
    TrialResult& out = report.trials[index];  // slot keyed by index
    out.label = std::move(pt.label);
    out.index = index;
    out.seed = ctx.seed;
    out.record = std::move(rec);
    out.wall_ms = ms_between(t0, t1);
    out.sim_end = ctx.sim_end;
    out.faults = ctx.faults;
    out.faults_noted = ctx.faults_noted;
    if (hub != nullptr) {
      out.metrics = hub->metrics().snapshot();
      if (obs::Tracer* tr = hub->tracer()) {
        out.trace_dropped = tr->dropped();
        out.trace = tr->take();
        for (obs::TraceEvent& ev : out.trace) {
          ev.pid = static_cast<std::uint32_t>(index + 1);
        }
      }
      if (obs::StreamSink* sink = hub->stream()) {
        out.stream_published = sink->published_total();
        out.stream_dropped = sink->dropped_total();
        out.stream_noted = true;
        // The enforcement channel is the closed loop's audit trail: online
        // consumers deliberately never drain it, so whatever the control
        // ports published is still in the ring here.  Peek (not drain) —
        // a trial may inspect its own sink after this.
        for (const obs::StreamSample& s :
             sink->peek(obs::StreamChannel::kEnforcement)) {
          const auto ev = static_cast<obs::EnforcementEvent>(s.aux);
          if (ev == obs::EnforcementEvent::kApply) ++out.actions_applied;
          if (ev == obs::EnforcementEvent::kLift) ++out.actions_lifted;
        }
      }
    }
    pt.fn = nullptr;  // release the closure's captures eagerly
  };

  const std::size_t jobs =
      std::min(report.jobs, trials_.empty() ? std::size_t{1} : trials_.size());
  if (jobs <= 1) {
    for (std::size_t i = 0; i < trials_.size(); ++i) execute(i);
  } else {
    const std::size_t cap =
        opts.queue_capacity != 0 ? opts.queue_capacity : 2 * jobs;
    BoundedQueue<std::size_t> queue(cap);
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      workers.emplace_back([&queue, &execute] {
        std::size_t index = 0;
        while (queue.pop(&index)) execute(index);
      });
    }
    for (std::size_t i = 0; i < trials_.size(); ++i) queue.push(i);
    queue.close();
    for (auto& w : workers) w.join();
  }

  report.total_wall_ms = ms_between(run_start, Clock::now());
  trials_.clear();
  return report;
}

}  // namespace ragnar::harness
