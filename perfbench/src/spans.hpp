#pragma once

// Host-time span recorder for the traced benchmark run.
//
// The driver wraps every call it makes into a Ragnar layer in a ScopedSpan.
// Spans go to per-thread buffers (no locks on the hot path); a span's
// parent is the innermost open span on the same thread, or an explicit
// parent id when the work hops threads (sweep trials, engine workers).
// All spans of one workload trial carry that trial's id.  When recording
// is off (the untraced run) a ScopedSpan costs one relaxed load + branch.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::uint32_t trial = 0;
  std::uint32_t thread = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

std::int64_t now_ns();

// Global on/off switch, flipped by the driver between untraced and traced
// iterations (never while spans are open).
void set_recording(bool on);
bool recording();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, SpanId parent = kNoSpan);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }

 private:
  SpanId id_ = kNoSpan;
  SpanId prev_ = kNoSpan;
  std::int64_t start_ = 0;
  const char* name_;
  SpanId parent_;
};

// Trial tag for spans opened on this thread while the scope lives.
class ScopedTrial {
 public:
  explicit ScopedTrial(std::uint32_t trial);
  ~ScopedTrial();
  ScopedTrial(const ScopedTrial&) = delete;
  ScopedTrial& operator=(const ScopedTrial&) = delete;

 private:
  std::uint32_t prev_;
};

// Per-layer summary of one traced iteration.
struct LayerTime {
  std::uint64_t count = 0;
  double total_ns = 0;  // sum of span durations
  double self_ns = 0;   // minus the time child spans cover
  std::vector<double> durations_ns;
};

struct TraceSummary {
  std::map<std::string, LayerTime> layers;
  double root_ns = 0;        // time covered by root spans
  double attributed_ns = 0;  // root time covered by some child layer span
};

// Collect every thread's spans, summarize them, and clear the buffers.  The
// last collected batch is kept for write_chrome_trace().
TraceSummary collect();

// Write the last collected batch as Chrome trace_event JSON.
bool write_chrome_trace(const std::string& path);

}  // namespace perfbench
