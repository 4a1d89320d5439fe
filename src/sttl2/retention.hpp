// Retention-counter bookkeeping (after Cache Revive [7] / the paper's
// Section 5): each line in a volatile STT-RAM array carries an n-bit counter
// clocked at retention_time / 2^n. The counter value approximates the age of
// the line's data; refresh is postponed to the last counter period before
// expiry ("postpone refresh of data blocks to the last cycles of retention
// period").
//
// RetentionClock converts between the device retention time and core cycles
// and answers, for a line (re)written at cycle W:
//   * deadline(W)     — the cycle at which data becomes unreliable;
//   * refresh_due(W)  — the cycle at which the refresh must be performed
//                       (one counter tick before the deadline).
//
// DeadlineIndex holds an array's pending refresh or expiry deadlines: one
// per line, as one counter per line allows.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "common/units.hpp"

namespace sttgpu::sttl2 {

class RetentionClock {
 public:
  /// @p retention_s device retention time; @p counter_bits per-line counter
  /// width; @p clock the core clock the cycle numbers are expressed in.
  RetentionClock(double retention_s, unsigned counter_bits, const Clock& clock);

  Cycle retention_cycles() const noexcept { return retention_cycles_; }
  Cycle tick_cycles() const noexcept { return tick_cycles_; }
  unsigned counter_bits() const noexcept { return bits_; }

  Cycle deadline(Cycle written_at) const noexcept { return written_at + retention_cycles_; }

  /// Refresh must happen in the last counter period before the deadline.
  Cycle refresh_due(Cycle written_at) const noexcept {
    return written_at + retention_cycles_ - tick_cycles_;
  }

  /// Counter value an observer would read at @p now for data written at
  /// @p written_at (saturates at 2^bits - 1 == expired).
  unsigned counter_value(Cycle written_at, Cycle now) const noexcept;

 private:
  unsigned bits_;
  Cycle retention_cycles_;
  Cycle tick_cycles_;
};

/// The pending deadlines of one array, at most one per (set, way) slot,
/// sorted by key; equal keys stay in the order they were set (write order).
/// Every key is a write cycle plus the array's fixed retention offset, so a
/// new key lands at or next to the tail and set() is O(1) amortized.
/// Allocates nothing until the first set().
class DeadlineIndex {
 public:
  struct Slot {
    std::uint64_t set;
    unsigned way;
  };

  DeadlineIndex(std::uint64_t sets, unsigned ways) noexcept : sets_(sets), ways_(ways) {}

  /// Schedules (or moves) the slot's deadline to @p key, behind every
  /// pending key <= @p key.
  void set(std::uint64_t set, unsigned way, Cycle key);
  /// Drops the slot's pending deadline, if any.
  void erase(std::uint64_t set, unsigned way) noexcept;

  std::size_t size() const noexcept { return size_; }
  /// Earliest pending key; kNoCycle when none is pending.
  Cycle next() const noexcept { return head_ == kNil ? kNoCycle : nodes_[head_].key; }
  /// Removes and returns the earliest slot. Precondition: next() != kNoCycle.
  Slot pop_front() noexcept;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  struct Node {
    Cycle key = kNoCycle;  ///< kNoCycle: nothing pending for this slot
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  void unlink(std::uint32_t slot) noexcept;

  std::uint64_t sets_;
  unsigned ways_;
  std::vector<Node> nodes_;  ///< one per slot (set * ways + way) once used
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace sttgpu::sttl2
