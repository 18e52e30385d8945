#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

// Push-based streaming observability (docs/OBSERVABILITY.md §streaming).
//
// Where the MetricsRegistry answers "how much, in total" at end of run, a
// StreamSink carries *individual timed samples* from the model's hot paths
// to online consumers (the src/defense/online detectors) while the
// simulation runs.  Design constraints, in order:
//
//   * Disabled-path cost: publishing goes through obs::stream(), one
//     thread-local load + a branch — the default (no hub, or a hub without
//     a sink) schedules exactly the pre-stream event sequence.
//   * Hot-path cost when enabled: a sample is 24 bytes of POD — channel
//     index into a fixed array (no string hashing), numeric key/aux packed
//     by the publisher — appended to a preallocated ring.
//   * Bounded memory: each channel is a fixed-capacity ring that overwrites
//     its oldest sample when full and counts what it evicted.  Drop
//     counters surface in harness JSON so silent loss is visible.
//   * Determinism: per-shard sinks are merged at window barriers in shard
//     order with a stable sort by timestamp, the same discipline as
//     TimeSeries::merge_from — a consumer draining the merged sink sees a
//     shard-count-independent sample order for distinct timestamps.
namespace ragnar::obs {

// Fixed channel set.  Publishers pack identity into key/aux; consumers
// subscribe per channel.  Adding a channel is an API change, not a runtime
// registration — that is what keeps the publish path allocation-free.
enum class StreamChannel : std::uint8_t {
  // rnic pipeline: key = StageId, aux = src node, value = dwell ns.
  kStageDwell = 0,
  // rnic admission (Grain-II observable): key = (src << 8) | (opcode << 4)
  //   | size class (0 tiny / 1 medium / 2 large), value = message bytes.
  kTenantMsg,
  // rnic admission (Grain-III/IV observable): key = src node, aux = rkey,
  //   value = src qpn.
  kTenantResource,
  // fabric switch: key = switch id, aux = link id, value = occupancy bytes.
  kSwitchQueue,
  // fabric switch: key = switch id, aux = link id, value = dropped bytes.
  kSwitchDrop,
  // fabric PFC: key = switch id, aux = 1 assert / 0 extend, value =
  //   pause horizon ns.
  kPfcPause,
  // verbs reliability: key = qpn, aux = QpStreamEvent, value = 1.
  kQpRetry,
  // rnic control plane (rnic/control.hpp): key = (device << 16) | tenant,
  //   aux = EnforcementEvent, value = cap Gb/s (0 on lift).  The audit
  //   trail of a closed-loop defense run — the online pipeline never drains
  //   it, so the harness can count applies/lifts at trial end.
  kEnforcement,
  kCount
};

inline constexpr std::size_t kStreamChannels =
    static_cast<std::size_t>(StreamChannel::kCount);

// aux codes for kQpRetry.
enum class QpStreamEvent : std::uint32_t {
  kTimeout = 0,
  kRetransmit,
  kRnrNak,
  kRnrRetry,
  kFlush,
};

// aux codes for kEnforcement.
enum class EnforcementEvent : std::uint32_t {
  kLift = 0,   // per-tenant cap removed
  kApply = 1,  // per-tenant cap installed / replaced
};

struct StreamSample {
  sim::SimTime t = 0;
  std::uint32_t key = 0;
  std::uint32_t aux = 0;
  double value = 0;
};

class StreamSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;  // per channel

  explicit StreamSink(std::size_t capacity_per_channel = kDefaultCapacity);

  void publish(StreamChannel ch, sim::SimTime t, std::uint32_t key,
               std::uint32_t aux, double value) {
    Ring& r = rings_[static_cast<std::size_t>(ch)];
    StreamSample& s = r.buf[r.next];
    s.t = t;
    s.key = key;
    s.aux = aux;
    s.value = value;
    r.next = r.next + 1 == r.buf.size() ? 0 : r.next + 1;
    if (r.size < r.buf.size()) {
      ++r.size;
    } else {
      ++r.dropped;  // overwrote the oldest sample
    }
    ++r.published;
  }

  // Samples of one channel, oldest first, clearing the ring.  Ordered by
  // publish order (which is time order per publisher; the engine's shard
  // merge re-establishes global time order with a stable sort).
  std::vector<StreamSample> drain(StreamChannel ch);

  // Append `other`'s samples into this sink's rings, oldest first, then
  // stable-sort each touched ring by timestamp; clears `other`.  Called by
  // sim::Engine at window barriers in shard order, so the result does not
  // depend on the shard layout for distinct timestamps.
  void merge_from(StreamSink& other);

  std::size_t size(StreamChannel ch) const {
    return rings_[static_cast<std::size_t>(ch)].size;
  }
  std::uint64_t published(StreamChannel ch) const {
    return rings_[static_cast<std::size_t>(ch)].published;
  }
  std::uint64_t dropped(StreamChannel ch) const {
    return rings_[static_cast<std::size_t>(ch)].dropped;
  }
  std::uint64_t published_total() const;
  std::uint64_t dropped_total() const;
  std::size_t capacity_per_channel() const { return capacity_; }
  std::size_t footprint_bytes() const;

  // Copy of one channel's live samples, oldest first, *without* clearing
  // the ring — the read for audit-trail channels (kEnforcement) that must
  // survive until the harness counts them at trial end.
  std::vector<StreamSample> peek(StreamChannel ch) const;

  void clear();

 private:
  struct Ring {
    std::vector<StreamSample> buf;
    std::size_t next = 0;  // overwrite position
    std::size_t size = 0;  // live samples (<= buf.size())
    std::uint64_t published = 0;
    std::uint64_t dropped = 0;
  };

  std::vector<StreamSample> take_ring(Ring& r);

  std::size_t capacity_;
  std::array<Ring, kStreamChannels> rings_;
};

}  // namespace ragnar::obs
