#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/obs.hpp"
#include "sim/coro.hpp"

namespace ragnar::sim {

Engine::Engine(const Options& opts)
    : windowed_(opts.shards > 0),
      lookahead_(std::max<SimDur>(1, opts.max_lookahead)) {
  const std::uint32_t n = windowed_ ? opts.shards : 1;
  shards_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<ShardState>());
    shards_.back()->out.reset(n);
  }
}

SimTime Engine::now() const {
  // Between run calls every shard clock agrees (run_windows advances all of
  // them to the same bound); shard 0 speaks for the engine.
  return shards_[0]->sched.now();
}

SimTime Engine::local_now() const {
  return exec_.state != nullptr ? exec_.state->sched.now() : now();
}

ShardId Engine::current_shard() const { return exec_.id; }

void Engine::spawn(Task actor, ShardId s) {
  shards_[s]->sched.spawn(std::move(actor));
}

void Engine::lookahead_violation(SimTime t) const {
  std::fprintf(stderr,
               "sim::Engine: lookahead violation — post for t=%llu inside "
               "window ending at %llu (lookahead %llu ps). A model path "
               "bypassed the fabric's latency floor.\n",
               static_cast<unsigned long long>(t),
               static_cast<unsigned long long>(window_upto_),
               static_cast<unsigned long long>(lookahead_));
  std::abort();
}

void Engine::constrain_lookahead(SimDur lat) {
  lookahead_ = std::max<SimDur>(1, std::min(lookahead_, lat));
}

void Engine::run_until(SimTime t) {
  if (!windowed_) {
    legacy_scheduler().run_until(t);
    return;
  }
  run_windows(t, true, nullptr);
}

void Engine::run_until(const std::function<bool()>& done) {
  run_while([&done] { return !done(); });
}

void Engine::run_while(const std::function<bool()>& pred) {
  if (!windowed_) {
    legacy_scheduler().run_while(pred);
    return;
  }
  run_windows(0, false, &pred);
}

void Engine::run_until_idle() {
  if (!windowed_) {
    legacy_scheduler().run_until_idle();
    return;
  }
  run_windows(0, false, nullptr);
}

std::uint64_t Engine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sched.events_processed();
  return total;
}

void Engine::run_windows(SimTime bound, bool bounded,
                         const std::function<bool()>* pred) {
  record_obs_ = obs::current() != nullptr;
  if (record_obs_) arm_shard_hubs();
  for (;;) {
    drain_all_mail();
    if (pred != nullptr && !(*pred)()) break;
    SimTime t_min = 0;
    if (!earliest_event(&t_min)) break;
    if (bounded && t_min > bound) break;
    // Window [t_min, t_min + L): inclusive end, saturating on overflow.
    SimTime upto = t_min + (lookahead_ - 1);
    if (upto < t_min) upto = ~SimTime{0};
    if (bounded && upto > bound) upto = bound;
    window_upto_ = upto;
    for (ShardId s = 0; s < shard_count(); ++s) exec_shard_window(s, upto);
    ++windows_;
  }
  if (bounded) {
    // No events <= bound remain anywhere; advance every clock to the bound
    // so now() is well-defined and equal across shards.
    for (auto& s : shards_) s->sched.run_until(bound);
  }
  if (record_obs_) merge_shard_metrics();
}

void Engine::drain_all_mail() {
  const std::uint32_t n = shard_count();
  auto outbox_of = [this](std::uint32_t s) -> Outbox& {
    return shards_[s]->out;
  };
  for (std::uint32_t dest = 0; dest < n; ++dest) {
    order_mail_for(n, outbox_of, dest, drain_keys_);
    mail_delivered_ += drain_keys_.size();
    Scheduler& sched = shards_[dest]->sched;
    for (const MailKey& k : drain_keys_) {
      sched.at(k.at, std::move(outbox_of(k.src).row(dest)[k.idx].cb));
    }
    for (std::uint32_t src = 0; src < n; ++src) {
      outbox_of(src).row(dest).clear();
    }
  }
}

bool Engine::earliest_event(SimTime* t) const {
  bool any = false;
  SimTime best = ~SimTime{0};
  for (const auto& s : shards_) {
    if (s->sched.pending() == 0) continue;
    best = std::min(best, s->sched.next_event_time());
    any = true;
  }
  *t = best;
  return any;
}

void Engine::exec_shard_window(ShardId s, SimTime upto) {
  ShardState& st = *shards_[s];
  exec_.state = &st;
  exec_.id = s;
  obs::Hub* prev = nullptr;
  if (record_obs_) prev = obs::install(st.hub.get());
  st.sched.run_until(upto);
  if (record_obs_) obs::install(prev);
  exec_ = ExecContext{};
}

void Engine::arm_shard_hubs() {
  // Shard hubs inherit the parent's streaming config so model hooks publish
  // per-shard; merging them in shard order after the run is what keeps the
  // stream sequence shard-count invariant.  Tracing stays parent-only —
  // span rings are drained per trial, not per window.
  obs::Hub::Config cfg;
  if (obs::Hub* parent = obs::current()) {
    cfg.streaming = parent->config().streaming;
    cfg.stream_capacity = parent->config().stream_capacity;
  }
  for (auto& s : shards_) {
    // Recreate on config change (a later run may arm streaming): shard hubs
    // hold no state across runs — metrics and streams are merged out and
    // cleared at every run's end.
    const bool stale =
        s->hub != nullptr &&
        (s->hub->config().streaming != cfg.streaming ||
         (cfg.streaming &&
          s->hub->config().stream_capacity != cfg.stream_capacity));
    if (s->hub == nullptr || stale) s->hub = std::make_unique<obs::Hub>(cfg);
  }
}

void Engine::merge_shard_metrics() {
  obs::Hub* parent = obs::current();
  if (parent == nullptr) return;
  for (auto& s : shards_) {
    if (s->hub == nullptr) continue;
    parent->metrics().merge_from(s->hub->metrics());
    s->hub->metrics().clear();
    // Streams merge in shard order with a stable per-timestamp sort, so the
    // merged sample sequence is shard-count independent for distinct
    // timestamps (docs/OBSERVABILITY.md §streaming).
    if (parent->stream() != nullptr && s->hub->stream() != nullptr) {
      parent->stream()->merge_from(*s->hub->stream());
    }
  }
}

}  // namespace ragnar::sim
