#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

struct ThreadBuf {
  std::uint32_t index = 0;
  std::uint64_t seq = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_on{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // never shrinks
std::vector<Span> g_last;                        // last collected batch

thread_local ThreadBuf* t_buf = nullptr;
thread_local SpanId t_current = kNoSpan;
thread_local std::uint32_t t_trial = 0;

ThreadBuf& buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    t_buf = g_bufs.back().get();
    t_buf->index = static_cast<std::uint32_t>(g_bufs.size());
    t_buf->spans.reserve(1 << 16);
  }
  return *t_buf;
}

// Length of the union of [start, end) intervals, clipped to [lo, hi).
double covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                  std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  std::int64_t cur_s = 0, cur_e = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += static_cast<double>(cur_e - cur_s);
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += static_cast<double>(cur_e - cur_s);
  return total;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_recording(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool recording() { return g_on.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name, SpanId parent)
    : name_(name), parent_(parent) {
  if (!recording()) return;
  ThreadBuf& b = buf();
  id_ = (static_cast<SpanId>(b.index) << 40) | ++b.seq;
  prev_ = t_current;
  if (parent_ == kNoSpan) parent_ = t_current;
  t_current = id_;
  start_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == kNoSpan) return;
  const std::int64_t end = now_ns();
  t_current = prev_;
  ThreadBuf& b = *t_buf;
  b.spans.push_back(
      Span{id_, parent_, t_trial, b.index, name_, start_, end});
}

ScopedTrial::ScopedTrial(std::uint32_t trial) : prev_(t_trial) {
  t_trial = trial;
}
ScopedTrial::~ScopedTrial() { t_trial = prev_; }

TraceSummary collect() {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (auto& b : g_bufs) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
      b->spans.clear();
    }
  }
  std::unordered_map<SpanId, std::size_t> index;
  index.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      all.size());
  for (const Span& s : all) {
    auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }

  TraceSummary sum;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const double covered = covered_ns(kids[i], s.start_ns, s.end_ns);
    LayerTime& lt = sum.layers[s.name];
    lt.count += 1;
    lt.total_ns += dur;
    lt.self_ns += dur - covered;
    lt.durations_ns.push_back(dur);
    if (s.parent == kNoSpan) {
      sum.root_ns += dur;
      sum.attributed_ns += covered;
    }
  }
  g_last = std::move(all);
  return sum;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::int64_t t0 = 0;
  for (const Span& s : g_last) {
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  }
  for (std::size_t i = 0; i < g_last.size(); ++i) {
    const Span& s = g_last[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.trial, s.thread,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
