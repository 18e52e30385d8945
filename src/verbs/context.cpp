#include "verbs/context.hpp"

#include <cstring>
#include <algorithm>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace ragnar::verbs {

namespace {

// PR 3 observability hooks.  Each is one thread-local read + branch when no
// hub is installed, so the uninstrumented event sequence is untouched.
void count_qp_event(const char* name, std::uint32_t qpn,
                    std::uint64_t n = 1) {
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter(name, obs::LabelSet{{"qp", std::to_string(qpn)}}).add(n);
  }
}

// Streaming counterpart: a timed reliability event on the kQpRetry channel,
// consumed by the online defense detectors.  Same disabled-path discipline
// as the registry hooks (one TLS read + branch).
void stream_qp_event(obs::QpStreamEvent kind, std::uint32_t qpn,
                     sim::SimTime at) {
  if (obs::StreamSink* sink = obs::stream()) {
    sink->publish(obs::StreamChannel::kQpRetry, at, qpn,
                  static_cast<std::uint32_t>(kind), 1.0);
  }
}

void note_qp_transition(std::uint32_t qpn, QpState from, QpState to,
                        sim::SimTime at) {
  if (obs::Tracer* tr = obs::tracer()) {
    tr->instant("qp", qp_state_name(to), at,
                {{"qp", std::to_string(qpn)}, {"from", qp_state_name(from)}});
  }
}

}  // namespace

void Context::note_completion(std::uint32_t qpn, const Wc& wc) {
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    const auto op = static_cast<std::size_t>(wc.opcode);
    const char* op_name = wr_opcode_name(wc.opcode);
    completions_m_[op]
        .in(*reg,
            [op_name](obs::MetricsRegistry& r) -> obs::Counter& {
              return r.counter("verbs.completions", {{"op", op_name}});
            })
        .add();
    if (wc.status == rnic::WcStatus::kSuccess) {
      op_ns_m_[op]
          .in(*reg,
              [op_name](obs::MetricsRegistry& r) -> obs::Histogram& {
                return r.histogram("verbs.op_ns", {{"op", op_name}});
              })
          .record(sim::to_ns(wc.latency()));
    } else {
      const char* status = rnic::wc_status_name(wc.status);
      errors_m_[static_cast<std::size_t>(wc.status)]
          .in(*reg,
              [status](obs::MetricsRegistry& r) -> obs::Counter& {
                return r.counter("verbs.errors", {{"status", status}});
              })
          .add();
    }
  }
  if (obs::Tracer* tr = obs::tracer()) {
    tr->complete("verbs", wr_opcode_name(wc.opcode), wc.posted_at,
                 wc.completed_at,
                 {{"qp", std::to_string(qpn)},
                  {"status", rnic::wc_status_name(wc.status)},
                  {"bytes", std::to_string(wc.byte_len)}});
  }
}

Context::Context(fabric::Topology& fabric, rnic::Rnic* device,
                 std::string name)
    : fabric_(fabric),
      device_(device),
      name_(std::move(name)),
      // Give each host a disjoint VA range so cross-host address confusion
      // is caught immediately.
      next_va_((static_cast<std::uint64_t>(device->node()) + 1) << 40),
      next_rkey_((static_cast<rnic::Rkey>(device->node()) + 1) << 20) {
  // Inbound SEND delivery: this context is the device's RecvSink.
  device_->attach_recv_sink(this);
}

Context::~Context() {
  // Detach so a late inbound SEND on a device outliving its context RNR-NAKs
  // instead of dereferencing a dead sink.
  if (device_->recv_sink() == this) device_->attach_recv_sink(nullptr);
}

bool Context::on_inbound_send(rnic::Qpn dst_qpn, const std::uint8_t* data,
                              std::uint32_t len, sim::SimTime at) {
  QueuePair* qp = find_qp(dst_qpn);
  if (qp == nullptr) return false;
  return qp->consume_recv(data, len, at);
}

std::unique_ptr<ProtectionDomain> Context::alloc_pd() {
  // PDNs are per-context (a process-wide counter would be both a data race
  // and a determinism leak when independent trials run on harness threads).
  return std::make_unique<ProtectionDomain>(*this, next_pdn_++);
}

std::unique_ptr<CompletionQueue> Context::create_cq(std::uint32_t depth) {
  return std::make_unique<CompletionQueue>(*this, depth);
}

std::unique_ptr<QueuePair> Context::create_qp(ProtectionDomain& pd,
                                              CompletionQueue& cq,
                                              QpConfig cfg) {
  return std::make_unique<QueuePair>(pd, cq, cfg);
}

std::unique_ptr<QueuePair> ProtectionDomain::create_qp(CompletionQueue& cq,
                                                       QpConfig cfg) {
  return ctx_.create_qp(*this, cq, cfg);
}

std::uint64_t Context::allocate_va(std::uint64_t len) {
  // Align every allocation to 2 MB so offset arithmetic inside an MR is
  // unpolluted by base alignment (the paper pins MRs to huge pages).
  constexpr std::uint64_t kAlign = 2ull << 20;
  next_va_ = (next_va_ + kAlign - 1) & ~(kAlign - 1);
  const std::uint64_t base = next_va_;
  next_va_ += len;
  return base;
}

void Context::map_local(std::uint64_t base, std::uint64_t len,
                        std::uint8_t* data) {
  local_maps_[base] = LocalMap{len, data};
}

void Context::unmap_local(std::uint64_t base) { local_maps_.erase(base); }

std::uint8_t* Context::resolve_local(std::uint64_t addr, std::uint32_t len) {
  auto it = local_maps_.upper_bound(addr);
  if (it == local_maps_.begin()) return nullptr;
  --it;
  const std::uint64_t base = it->first;
  const LocalMap& m = it->second;
  if (addr < base || addr + len > base + m.len) return nullptr;
  return m.data + (addr - base);
}

std::unique_ptr<MemoryRegion> ProtectionDomain::register_mr(std::uint64_t len,
                                                            Access access,
                                                            bool huge_pages) {
  return std::make_unique<MemoryRegion>(ctx_, pdn_, len, access, huge_pages);
}

MemoryRegion::MemoryRegion(Context& ctx, std::uint32_t pdn, std::uint64_t len,
                           Access access, bool huge_pages)
    : ctx_(ctx),
      pdn_(pdn),
      base_(ctx.allocate_va(len)),
      len_(len),
      rkey_(ctx.next_rkey()),
      mr_id_(ctx.next_mr_id()),
      buf_(len, 0) {
  ctx_.map_local(base_, len_, buf_.data());
  rnic::MrEntry e;
  e.rkey = rkey_;
  e.mr_id = mr_id_;
  e.base = base_;
  e.length = len_;
  e.page_bytes = huge_pages ? (2u << 20) : 4096u;
  e.allow_read = access.remote_read;
  e.allow_write = access.remote_write;
  e.allow_atomic = access.remote_atomic;
  e.data = buf_.data();
  ctx_.device().memory().register_mr(e);
}

MemoryRegion::~MemoryRegion() {
  ctx_.device().memory().deregister_mr(rkey_);
  ctx_.unmap_local(base_);
}

std::size_t CompletionQueue::poll(std::span<Wc> out) {
  const std::size_t n = std::min(out.size(), ready_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = ready_.front();
    ready_.pop_front();
  }
  return n;
}

bool CompletionQueue::poll_one(Wc* out) {
  if (ready_.empty()) return false;
  if (out != nullptr) *out = ready_.front();
  ready_.pop_front();
  return true;
}

void CompletionQueue::push(const Wc& wc) {
  ready_.push_back(wc);
  if (ready_.size() > depth_) ready_.pop_front();  // CQ overrun drops oldest
  // Release satisfied waiters through the scheduler for deterministic order.
  for (std::size_t i = 0; i < waiters_.size();) {
    if (ready_.size() >= waiters_[i].n) {
      auto h = waiters_[i].h;
      ctx_.scheduler().at(ctx_.scheduler().now(), [h] { h.resume(); });
      waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

bool CompletionQueue::run_until_available(std::size_t n) {
  auto& sched = ctx_.scheduler();
  while (ready_.size() < n) {
    if (!sched.step()) return false;
  }
  return true;
}

QueuePair::QueuePair(ProtectionDomain& pd, CompletionQueue& cq, Config cfg)
    : ctx_(pd.context()),
      cq_(cq),
      cfg_(cfg),
      qpn_(pd.context().next_qpn()),
      pdn_(pd.pdn()) {
  ctx_.note_qp_created();
  ctx_.register_qp(qpn_, this);
}

QueuePair::~QueuePair() {
  ctx_.unregister_qp(qpn_);
  ctx_.note_qp_destroyed();
}

PostResult QueuePair::post_recv(const RecvWr& wr) {
  // SQE leaves the receive side live (IB SQ-error semantics); only a full
  // ERR transition refuses receive work.
  if (state_ == QpState::kErr) return PostResult::kQpError;
  if (ctx_.resolve_local(wr.local_addr, wr.length) == nullptr) {
    return PostResult::kBadLocalAddr;
  }
  recv_queue_.push_back(wr);
  return PostResult::kOk;
}

bool QueuePair::consume_recv(const std::uint8_t* data, std::uint32_t len,
                             sim::SimTime at) {
  if (state_ == QpState::kErr) return false;  // responder RNR-NAKs the SEND
  if (recv_queue_.empty()) return false;
  const RecvWr rwr = recv_queue_.front();
  recv_queue_.pop_front();

  Wc wc;
  wc.wr_id = rwr.wr_id;
  wc.opcode = WrOpcode::kRecv;
  wc.posted_at = at;
  wc.completed_at = at;
  if (len > rwr.length) {
    // Inbound message larger than the posted buffer: local length error.
    wc.status = rnic::WcStatus::kRemoteInvalidRequest;
  } else {
    wc.status = rnic::WcStatus::kSuccess;
    wc.byte_len = len;
  }

  // Snapshot the payload now (the sender may reuse its buffer) but deliver
  // buffer contents and the completion at the simulated arrival time.
  std::vector<std::uint8_t> payload;
  if (wc.status == rnic::WcStatus::kSuccess && data != nullptr && len > 0) {
    payload.assign(data, data + len);
  }
  ctx_.scheduler().at(
      at, [this, wc, rwr, payload = std::move(payload)] {
        if (wc.status == rnic::WcStatus::kSuccess && !payload.empty()) {
          std::uint8_t* dst = ctx_.resolve_local(
              rwr.local_addr, static_cast<std::uint32_t>(payload.size()));
          if (dst != nullptr) {
            std::memcpy(dst, payload.data(), payload.size());
          }
        }
        ctx_.note_completion(qpn_, wc);
        cq_.push(wc);
      });
  return true;
}

ConnectResult QueuePair::connect(QueuePair& peer) {
  if (&peer == this) return ConnectResult::kSelfConnect;
  if (connected_ || peer.connected_) return ConnectResult::kAlreadyConnected;
  connected_ = true;
  peer_node_ = peer.ctx_.device().node();
  peer_qpn_ = peer.qpn_;
  peer.connected_ = true;
  peer.peer_node_ = ctx_.device().node();
  peer.peer_qpn_ = qpn_;
  state_ = QpState::kRts;
  peer.state_ = QpState::kRts;
  const sim::SimTime now = ctx_.scheduler().now();
  note_qp_transition(qpn_, QpState::kInit, QpState::kRts, now);
  note_qp_transition(peer.qpn_, QpState::kInit, QpState::kRts, now);
  return ConnectResult::kOk;
}

PostResult QueuePair::post_send(const SendWr& wr) {
  if (state_ == QpState::kSqe || state_ == QpState::kErr) {
    return PostResult::kQpError;
  }
  if (!connected_) return PostResult::kNotConnected;
  if (outstanding_ >= cfg_.max_send_wr) return PostResult::kSqFull;
  std::uint8_t* local = nullptr;
  if (wr.length > 0 || wr.opcode == WrOpcode::kFetchAdd ||
      wr.opcode == WrOpcode::kCmpSwap) {
    const std::uint32_t need =
        (wr.opcode == WrOpcode::kFetchAdd || wr.opcode == WrOpcode::kCmpSwap)
            ? 8
            : wr.length;
    local = ctx_.resolve_local(wr.local_addr, need);
    if (local == nullptr) return PostResult::kBadLocalAddr;
  }

  const std::uint64_t internal_id = next_internal_id_++;
  Pending p;
  p.user_wr_id = wr.wr_id;
  p.opcode = wr.opcode;
  p.length = wr.length;
  p.posted_at = ctx_.scheduler().now();
  p.queue_ahead = outstanding_;
  p.local = local;
  p.retries_left = cfg_.retry_cnt;
  p.rnr_left = cfg_.rnr_retry;
  p.cur_timeout = cfg_.timeout;

  rnic::WireOp op;
  op.op = to_wire(wr.opcode);
  op.size = (wr.opcode == WrOpcode::kFetchAdd || wr.opcode == WrOpcode::kCmpSwap)
                ? 8
                : wr.length;
  op.laddr = wr.local_addr;
  op.raddr = wr.remote_addr;
  op.rkey = wr.rkey;
  op.tc = cfg_.tc;
  op.src_qpn = qpn_;
  op.dst_qpn = peer_qpn_;
  op.src_node = ctx_.device().node();
  op.dst_node = peer_node_;
  op.wr_id = internal_id;
  op.atomic_operand =
      wr.opcode == WrOpcode::kCmpSwap ? wr.swap : wr.compare_add;
  op.atomic_compare = wr.compare_add;

  p.op = op;
  pending_[internal_id] = p;
  ++outstanding_;

  ctx_.device().post(op, this, local);
  arm_timer(internal_id);
  return PostResult::kOk;
}

void QueuePair::arm_timer(std::uint64_t id) {
  if (cfg_.timeout == 0) return;  // reliability timer disabled
  const Pending* p = pending_.find(id);
  if (p == nullptr) return;
  const std::uint32_t attempt = p->attempt;
  // Resolve the QP through the context registry at fire time: a timer that
  // outlives its QP must be inert.
  Context* ctx = &ctx_;
  const std::uint32_t qpn = qpn_;
  ctx_.scheduler().at(ctx_.scheduler().now() + p->cur_timeout,
                      [ctx, qpn, id, attempt] {
                        QueuePair* qp = ctx->find_qp(qpn);
                        if (qp != nullptr) qp->on_transport_timeout(id, attempt);
                      });
}

void QueuePair::on_transport_timeout(std::uint64_t id, std::uint32_t attempt) {
  Pending* pp = pending_.find(id);
  if (pp == nullptr || pp->attempt != attempt) return;  // stale
  if (state_ != QpState::kRts) return;
  ++stats_.timeouts;
  count_qp_event("qp.timeouts", qpn_);
  stream_qp_event(obs::QpStreamEvent::kTimeout, qpn_, ctx_.scheduler().now());
  Pending& p = *pp;
  if (p.retries_left == 0) {
    fail_wqe(id, rnic::WcStatus::kRetryExcError, ctx_.scheduler().now());
    return;
  }
  --p.retries_left;
  ++p.attempt;          // invalidates the late ACK of the lost transmission
  p.cur_timeout *= 2;   // exponential backoff
  ++stats_.retransmits;
  count_qp_event("qp.retransmits", qpn_);
  stream_qp_event(obs::QpStreamEvent::kRetransmit, qpn_, ctx_.scheduler().now());
  if (obs::Tracer* tr = obs::tracer()) {
    tr->instant("qp", "retransmit", ctx_.scheduler().now(),
                {{"qp", std::to_string(qpn_)}});
  }
  ctx_.device().post(p.op, this, p.local);
  arm_timer(id);
}

void QueuePair::repost_after_rnr(std::uint64_t id, std::uint32_t attempt) {
  const Pending* p = pending_.find(id);
  if (p == nullptr || p->attempt != attempt) return;  // stale
  if (state_ != QpState::kRts) return;  // flushed while backing off
  ++stats_.rnr_retries;
  count_qp_event("qp.rnr_retries", qpn_);
  stream_qp_event(obs::QpStreamEvent::kRnrRetry, qpn_, ctx_.scheduler().now());
  ctx_.device().post(p->op, this, p->local);
  arm_timer(id);
}

void QueuePair::fail_wqe(std::uint64_t id, rnic::WcStatus status,
                         sim::SimTime at) {
  const Pending* p = pending_.find(id);
  if (p == nullptr) return;
  Wc wc;
  wc.wr_id = p->user_wr_id;
  wc.opcode = p->opcode;
  wc.byte_len = p->length;
  wc.posted_at = p->posted_at;
  wc.queue_ahead = p->queue_ahead;
  wc.status = status;
  wc.completed_at = at;
  pending_.erase(id);
  if (outstanding_ > 0) --outstanding_;
  ctx_.note_completion(qpn_, wc);
  cq_.push(wc);
  // IB SQ-error semantics: the failing WQE carries its own status; every
  // other outstanding send flushes and the SQ stops accepting work.
  if (state_ == QpState::kRts) {
    state_ = QpState::kSqe;
    note_qp_transition(qpn_, QpState::kRts, QpState::kSqe, at);
  }
  flush_sends(at);
}

void QueuePair::flush_sends(sim::SimTime at) {
  // pending_ is keyed by monotonic internal id, so iteration = post order.
  for (const auto& [id, p] : pending_) {
    Wc wc;
    wc.wr_id = p.user_wr_id;
    wc.opcode = p.opcode;
    wc.byte_len = p.length;
    wc.posted_at = p.posted_at;
    wc.queue_ahead = p.queue_ahead;
    wc.status = rnic::WcStatus::kWrFlushErr;
    wc.completed_at = at;
    ++stats_.flushed;
    count_qp_event("qp.flushed", qpn_);
    stream_qp_event(obs::QpStreamEvent::kFlush, qpn_, at);
    cq_.push(wc);
  }
  pending_.clear();
  outstanding_ = 0;
}

void QueuePair::modify_to_error() {
  if (state_ == QpState::kErr) return;
  const QpState prev = state_;
  state_ = QpState::kErr;
  const sim::SimTime now = ctx_.scheduler().now();
  note_qp_transition(qpn_, prev, QpState::kErr, now);
  flush_sends(now);
  while (!recv_queue_.empty()) {
    const RecvWr rwr = recv_queue_.front();
    recv_queue_.pop_front();
    Wc wc;
    wc.wr_id = rwr.wr_id;
    wc.opcode = WrOpcode::kRecv;
    wc.status = rnic::WcStatus::kWrFlushErr;
    wc.posted_at = now;
    wc.completed_at = now;
    ++stats_.flushed;
    count_qp_event("qp.flushed", qpn_);
    stream_qp_event(obs::QpStreamEvent::kFlush, qpn_, now);
    cq_.push(wc);
  }
}

void QueuePair::on_completion(std::uint64_t wr_id, rnic::WcStatus status,
                              sim::SimTime at, std::uint64_t /*atomic_result*/) {
  Pending* pp = pending_.find(wr_id);
  // Unknown id: a duplicate response after retransmission, or a WQE already
  // flushed/failed.  The spec answer is to drop it, not fabricate a Wc.
  if (pp == nullptr) return;

  if (status == rnic::WcStatus::kRnrNak) {
    ++stats_.rnr_naks;
    count_qp_event("qp.rnr_naks", qpn_);
    stream_qp_event(obs::QpStreamEvent::kRnrNak, qpn_, at);
    Pending& p = *pp;
    if (p.rnr_left == 0) {
      fail_wqe(wr_id, rnic::WcStatus::kRnrRetryExcError, at);
      return;
    }
    --p.rnr_left;
    ++p.attempt;  // cancels any transport timer armed for the NAKed attempt
    // min_rnr_timer doubles per RNR already spent on this WQE.
    const std::uint32_t used =
        static_cast<std::uint32_t>(cfg_.rnr_retry - p.rnr_left);
    const sim::SimDur backoff = cfg_.min_rnr_timer * (1ll << (used - 1));
    Context* ctx = &ctx_;
    const std::uint32_t qpn = qpn_;
    const std::uint32_t attempt = p.attempt;
    ctx_.scheduler().at(at + backoff, [ctx, qpn, wr_id, attempt] {
      QueuePair* qp = ctx->find_qp(qpn);
      if (qp != nullptr) qp->repost_after_rnr(wr_id, attempt);
    });
    return;
  }

  Wc wc;
  wc.status = status;
  wc.completed_at = at;
  wc.wr_id = pp->user_wr_id;
  wc.opcode = pp->opcode;
  wc.byte_len = pp->length;
  wc.posted_at = pp->posted_at;
  wc.queue_ahead = pp->queue_ahead;
  pending_.erase(wr_id);
  if (outstanding_ > 0) --outstanding_;
  ctx_.note_completion(qpn_, wc);
  cq_.push(wc);
}

}  // namespace ragnar::verbs
