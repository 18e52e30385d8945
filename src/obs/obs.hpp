#pragma once

#include <cstddef>

#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

// The one observability entry point (docs/OBSERVABILITY.md).
//
// A Hub bundles a MetricsRegistry and an optional span Tracer.  Hubs are
// *installed* into a thread-local ambient slot; instrumentation hooks all
// over the model (rnic, fabric, verbs, faults, telemetry) read it through
// obs::metrics()/obs::tracer() and no-op when nothing is installed — which
// is the default, so an uninstrumented run schedules exactly the same
// events, draws the same randomness, and prints the same bytes as before
// this subsystem existed.
//
// Ownership discipline mirrors the harness determinism contract: one hub
// per trial, installed (via ScopedHub) only for the duration of that trial
// on whichever sweep worker thread runs it.  A windowed sim::Engine swaps
// in each shard's private hub while that shard executes a window, on the
// same thread.  Nothing in here takes a lock; the ambient slot is
// thread-local and a hub is only ever touched by the thread it is
// installed on.
namespace ragnar::obs {

class Hub {
 public:
  struct Config {
    bool tracing = false;            // allocate a Tracer?
    std::size_t trace_capacity = Tracer::kDefaultCapacity;
    bool streaming = false;          // allocate a StreamSink?
    std::size_t stream_capacity = StreamSink::kDefaultCapacity;
  };

  Hub() : Hub(Config{}) {}
  explicit Hub(const Config& cfg)
      : cfg_(cfg),
        tracer_(cfg.tracing ? new Tracer(cfg.trace_capacity) : nullptr),
        stream_(cfg.streaming ? new StreamSink(cfg.stream_capacity)
                              : nullptr) {}
  ~Hub() {
    delete tracer_;
    delete stream_;
  }
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  const Config& config() const { return cfg_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer* tracer() { return tracer_; }
  StreamSink* stream() { return stream_; }

 private:
  Config cfg_;
  MetricsRegistry metrics_;
  Tracer* tracer_;
  StreamSink* stream_;
};

namespace detail {
// Defined in the header so the hook-site accessors compile down to a single
// thread-local load + branch at every call site (the rnic pipeline notes a
// span per stage per message — an out-of-line read would dominate the
// disabled path).  Not part of the public API: go through current().
inline thread_local Hub* t_current = nullptr;
}  // namespace detail

// The ambient hub for this thread (nullptr when observability is off).
inline Hub* current() { return detail::t_current; }
// Install `hub` (nullptr uninstalls); returns the previous hub.
Hub* install(Hub* hub);

// RAII install for a scope — what the sweep harness wraps around each trial.
class ScopedHub {
 public:
  explicit ScopedHub(Hub* hub) : prev_(install(hub)) {}
  ~ScopedHub() { install(prev_); }
  ScopedHub(const ScopedHub&) = delete;
  ScopedHub& operator=(const ScopedHub&) = delete;

 private:
  Hub* prev_;
};

// Hook-site accessors: non-null only when a hub is installed (and, for
// tracer(), tracing enabled).  The disabled-path cost is one thread-local
// read and a branch.
inline MetricsRegistry* metrics() {
  Hub* h = current();
  return h != nullptr ? &h->metrics() : nullptr;
}

inline Tracer* tracer() {
  Hub* h = current();
  return h != nullptr ? h->tracer() : nullptr;
}

inline StreamSink* stream() {
  Hub* h = current();
  return h != nullptr ? h->stream() : nullptr;
}

}  // namespace ragnar::obs
