#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace ragnar::sim {

// A d-ary min-heap of 16-byte event keys.  A key is the event's time plus a
// tag packing its FIFO sequence number (high bits) over its slab slot (low
// bits); sequence numbers are unique, so comparing (at, tag) orders keys
// exactly by (at, seq).  EventQueue runs the 4-ary instance: a sift-down
// step compares four adjacent keys (64 bytes) and the heap is half as deep
// as a binary one; BM_KeyHeapHold in bench/sim_microbench.cpp compares the
// two arities at the benchmark workloads' queue depths.
template <unsigned Arity>
class KeyHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  struct Key {
    SimTime at;
    std::uint64_t tag;
    bool operator<(const Key& o) const {
      return at != o.at ? at < o.at : tag < o.tag;
    }
  };

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  const Key& top() const { return keys_.front(); }  // precondition: !empty()
  void clear() { keys_.clear(); }
  const std::vector<Key>& keys() const { return keys_; }

  void push(Key k) {
    std::size_t i = keys_.size();
    keys_.push_back(k);
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!(k < keys_[parent])) break;
      keys_[i] = keys_[parent];
      i = parent;
    }
    keys_[i] = k;
  }

  // Remove and return the minimum.  Precondition: !empty().
  Key pop() {
    const Key top = keys_.front();
    const Key last = keys_.back();
    keys_.pop_back();
    const std::size_t n = keys_.size();
    if (n == 0) return top;
    // Sift the former last key down from the root through a hole.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * Arity + 1;
      if (first >= n) break;
      const std::size_t end = first + Arity < n ? first + Arity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (keys_[c] < keys_[best]) best = c;
      }
      if (!(keys_[best] < last)) break;
      keys_[i] = keys_[best];
      i = best;
    }
    keys_[i] = last;
    return top;
  }

 private:
  std::vector<Key> keys_;
};

// The event queue: a 4-ary heap of {at, seq, slot} keys over a slab of
// InlineFn callables.  Events run in (time, insertion order): ties on the
// timestamp break FIFO by a monotonically increasing sequence number, so
// same-instant events interleave reproducibly — the attacks depend on it.
//
// The slab is chunked, so a slot never moves once its callable is built:
// run_next() invokes the callable where it lies, even while the callback
// schedules new events that grow the slab, and frees the slot afterwards.
// Freed slots are reused LIFO, so a steady-state simulation touches a small,
// warm set of slots and never allocates.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() = default;  // chunks destroy every callable still held

  template <typename F>
  void push(SimTime at, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slot_fn(slot).emplace(std::forward<F>(fn));
    if (next_seq_ >= kMaxSeq) die("FIFO sequence space exhausted");
    heap_.push({at, (next_seq_++ << kSlotBits) | slot});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  // Precondition: !empty().
  SimTime next_time() const { return heap_.top().at; }

  // Pop the earliest event and move its callable out.  Precondition:
  // !empty().
  InlineFn pop(SimTime* at) {
    const auto k = heap_.pop();
    if (at != nullptr) *at = k.at;
    const auto slot = static_cast<std::uint32_t>(k.tag & kSlotMask);
    InlineFn fn = std::move(slot_fn(slot));
    free_.push_back(slot);
    return fn;
  }

  // Pop the earliest event, hand its time to `on_pop`, then invoke the
  // callable in its slab slot and release the slot.  Precondition: !empty().
  template <typename OnPop>
  void run_next(OnPop&& on_pop) {
    const auto k = heap_.pop();
    const auto slot = static_cast<std::uint32_t>(k.tag & kSlotMask);
    on_pop(k.at);
    InlineFn& fn = slot_fn(slot);
    fn();
    fn.reset();
    free_.push_back(slot);
  }

  // Destroy every pending callable and reset the FIFO sequence, so the
  // queue orders same-time events exactly like a freshly constructed one.
  // A callable running inside run_next() is not pending and survives.
  void clear() {
    for (const auto& k : heap_.keys()) {
      const auto slot = static_cast<std::uint32_t>(k.tag & kSlotMask);
      slot_fn(slot).reset();
      free_.push_back(slot);
    }
    heap_.clear();
    next_seq_ = 0;
  }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                           << (64 - kSlotBits);
  static constexpr unsigned kChunkBits = 7;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;
  struct Chunk {
    InlineFn fns[kChunkSlots];
  };

  InlineFn& slot_fn(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits]->fns[slot & (kChunkSlots - 1)];
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (capacity_ == (std::uint64_t{1} << kSlotBits)) {
      die("more than 2^24 events pending");
    }
    chunks_.push_back(std::make_unique<Chunk>());
    const std::uint32_t base = capacity_;
    capacity_ += kChunkSlots;
    // Stack the rest of the chunk so it is handed out in ascending order.
    for (std::uint32_t s = capacity_ - 1; s > base; --s) free_.push_back(s);
    return base;
  }

  [[noreturn]] static void die(const char* why) {
    std::fprintf(stderr, "sim::EventQueue: %s\n", why);
    std::abort();
  }

  KeyHeap<4> heap_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t capacity_ = 0;  // slots allocated across all chunks
  std::uint64_t next_seq_ = 0;
};

}  // namespace ragnar::sim
