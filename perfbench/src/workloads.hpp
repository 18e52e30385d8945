#pragma once

// The benchmark's four workloads.  Each one builds its simulated worlds
// from a seed (timed as set-up), runs them (timed as the run phase), reads
// back the simulated statistics (digested, so a simulator-only change can
// be checked to leave them identical) and runs its own sanity checks.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Simulated statistics of one iteration.  Everything added here is
// deterministic for a given seed and goes into the digest; the named
// per-layer counts are also reported by the traced run.
class Stats {
 public:
  // A per-layer count (reported under `name`, e.g. "sim.events").
  void count(const std::string& name, double v);
  // A per-layer count only the census run can read (not digested, since
  // the untraced iterations do not see it).
  void census(const std::string& name, double v) { counts_[name] += v; }
  // A digested statistic that is not reported on its own.
  void note(const std::string& key, double v);
  // Bulk data (e.g. trace points); order-sensitive.
  void note_all(const std::string& key, const std::vector<double>& v);

  double get(const std::string& name) const;
  const std::map<std::string, double>& counts() const { return counts_; }
  std::uint64_t digest() const { return hash_; }

 private:
  void mix(const std::string& key, double v);

  std::map<std::string, double> counts_;
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis
};

// Host-side figures that vary run to run (never digested).
struct HostFigures {
  std::vector<double> trial_s;   // harness trial walls
  double sweep_wall_s = 0;       // harness run() wall
  unsigned jobs = 0;             // harness workers used
  unsigned engine_workers = 0;   // sim::Engine worker threads
  double footprint_kb = 0;       // online pipeline footprint
};

struct Iteration {
  double setup_s = 0;  // host wall building worlds, summed over worlds
  double run_s = 0;    // host wall of the run phases
  double cpu_s = 0;    // process CPU time over the run phases
  Stats stats;
  HostFigures host;
  std::vector<std::string> failures;  // sanity-check failures
};

struct Options {
  std::uint64_t seed = 1;
  bool smoke = false;   // tiny sizes, for the self-test
  bool census = false;  // install an obs metrics hub (counts completions)
};

// Why each workload is in the benchmark: BENCHMARK.json and README.md.
struct Workload {
  const char* name;
  unsigned jobs;    // harness worker threads
  unsigned shards;  // sim::Engine shards (0 = legacy mode)
  Iteration (*run)(const Options& opts);
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
