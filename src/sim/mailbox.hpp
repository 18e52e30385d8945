#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

// Cross-shard mail for the windowed engine (docs/ENGINE.md §3).
//
// During a window, each shard appends every engine-mediated event it
// generates to its own outbox row — one slot vector per destination shard.
// The rows are drained into the destination queues at the window barrier.
//
// Determinism does not come from the drain *visit* order but from an
// explicit shard-independent sort key.  Every slot carries the origin key
// of the node that generated it (plus its push position within that
// origin, implicit in vector order); the drain concatenates all source
// rows for a destination and stable-sorts by (time, origin), sorting small
// position keys (MailKey) rather than the slots themselves.  Because an
// origin node lives on exactly one shard, the stable sort yields one total
// order that is a pure function of the event content — the same order
// whether the topology ran on 1 shard or 16.  See docs/ENGINE.md for why
// push order alone (the naive per-pair FIFO) is *not* shard-count
// invariant when two events tie on the timestamp.
namespace ragnar::sim {

struct MailSlot {
  SimTime at = 0;
  std::uint64_t origin = 0;  // shard-independent generator key (node id)
  InlineFn cb;
};

// One shard's outgoing mail: row per destination shard.
class Outbox {
 public:
  void reset(std::uint32_t shard_count) {
    rows_.clear();
    rows_.resize(shard_count);
  }

  template <typename F>
  void push(std::uint32_t dest, SimTime at, std::uint64_t origin, F&& fn) {
    MailSlot& slot = rows_[dest].emplace_back();
    slot.at = at;
    slot.origin = origin;
    slot.cb.emplace(std::forward<F>(fn));
  }

  std::vector<MailSlot>& row(std::uint32_t dest) { return rows_[dest]; }
  const std::vector<MailSlot>& row(std::uint32_t dest) const {
    return rows_[dest];
  }

  bool empty() const {
    for (const auto& r : rows_) {
      if (!r.empty()) return false;
    }
    return true;
  }

 private:
  std::vector<std::vector<MailSlot>> rows_;
};

// Where one slot sits in the canonical drain order.  (src, idx) is the
// slot's position in the by-source-shard concatenation, so a plain sort on
// the whole key is the stable sort by (time, origin) over that
// concatenation — computed on 24-byte keys while the slots, callables and
// all, stay in their rows.
struct MailKey {
  SimTime at;
  std::uint64_t origin;
  std::uint32_t src;  // source shard
  std::uint32_t idx;  // push position within the source row
  bool operator<(const MailKey& o) const {
    if (at != o.at) return at < o.at;
    if (origin != o.origin) return origin < o.origin;
    if (src != o.src) return src < o.src;
    return idx < o.idx;
  }
};

// Fill `keys` with the canonical delivery order of every source's row for
// destination `dest`; `outbox_of(s)` names source shard s's Outbox.  The
// rows are left intact for the caller to consume and clear.
template <typename OutboxOf>
void order_mail_for(std::uint32_t sources, OutboxOf&& outbox_of,
                    std::uint32_t dest, std::vector<MailKey>& keys) {
  keys.clear();
  for (std::uint32_t src = 0; src < sources; ++src) {
    const std::vector<MailSlot>& row = outbox_of(src).row(dest);
    for (std::uint32_t i = 0; i < row.size(); ++i) {
      keys.push_back(MailKey{row[i].at, row[i].origin, src, i});
    }
  }
  std::sort(keys.begin(), keys.end());
}

}  // namespace ragnar::sim
