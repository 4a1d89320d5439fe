// Wake table: the scheduler primitive behind Gpu's event-driven stepping
// loop (fast_forward), which pops each cycle's exact due set instead of
// ticking every component.
//
// One deadline slot per component id, a mask of the ids holding one, and
// the cached minimum over them. post() is a clamp, a compare and a store;
// pop_due() is a single compare until the minimum matures, and only then
// scans the posted ids, consuming the matured ones and recomputing the
// minimum in the same pass; next_deadline() returns that minimum exactly.
// With at most 64 ids (21 in the paper's machine) a scan is a few dozen
// loads, so no bucket structure pays for itself.
//
// Capacity: ids must fit a 64-bit due mask. The GPU maps banks to ids
// [0, B) and SMs to [B, B+S), so popping a cycle yields the due set in the
// exact bank-then-SM, ascending-id order the per-cycle loop uses.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sttgpu::sim {

class WakeTable {
 public:
  static constexpr unsigned kMaxIds = 64;

  explicit WakeTable(unsigned num_ids) : num_ids_(num_ids) {
    STTGPU_REQUIRE(num_ids >= 1 && num_ids <= kMaxIds,
                   "WakeTable: id count must be in [1, 64]");
    deadline_.fill(kNoCycle);
  }

  /// Posts (or tightens) id's deadline to @p when. Deadlines in the past
  /// are clamped to the next pop's cycle, which is exactly when a per-cycle
  /// loop would next visit the component. A no-op if a deadline at or
  /// before @p when is already posted.
  void post(unsigned id, Cycle when) {
    STTGPU_ASSERT(id < num_ids_);
    if (when < cur_) when = cur_;
    if (deadline_[id] <= when) return;
    deadline_[id] = when;
    posted_ |= std::uint64_t{1} << id;
    if (when < min_) min_ = when;
  }

  /// Consumes every id whose deadline is at or before @p now and returns
  /// them as a bitmask (bit i = id i), so the caller iterates ids in
  /// ascending order via countr_zero. Later posts clamp to now + 1.
  std::uint64_t pop_due(Cycle now) {
    cur_ = now + 1;
    if (now < min_) return 0;
    std::uint64_t due = 0;
    Cycle next = kNoCycle;
    for (std::uint64_t bits = posted_; bits != 0; bits &= bits - 1) {
      const unsigned id = static_cast<unsigned>(std::countr_zero(bits));
      const Cycle when = deadline_[id];
      if (when <= now) {
        deadline_[id] = kNoCycle;
        due |= std::uint64_t{1} << id;
      } else if (when < next) {
        next = when;
      }
    }
    posted_ &= ~due;
    min_ = next;
    return due;
  }

  /// Earliest posted deadline; kNoCycle when nothing is posted.
  Cycle next_deadline() const noexcept { return min_; }

 private:
  unsigned num_ids_;
  Cycle cur_ = 0;          ///< cycle of the next pop; earlier posts clamp to it
  Cycle min_ = kNoCycle;   ///< minimum of deadline_ over posted_
  std::uint64_t posted_ = 0;
  std::array<Cycle, kMaxIds> deadline_;
};

}  // namespace sttgpu::sim
