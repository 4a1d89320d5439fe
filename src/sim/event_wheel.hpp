// Hierarchical event wheel: the scheduler primitive behind Gpu's
// event-driven stepping loop (fast_forward), which pops each cycle's exact
// due set instead of ticking every component.
//
// Near wheel: kBuckets one-cycle buckets (power of two), each a 64-bit mask
// of component ids with an entry at that cycle, plus a bucket-occupancy
// bitmap so both popping and the next-deadline query touch only occupied
// buckets. Deadlines at or beyond the horizon go to a far min-heap and are
// promoted into the near wheel as it advances.
//
// Laziness contract: posted_[id] holds the earliest outstanding posted
// cycle per id. A bucket (or far-heap) entry is live iff it matches
// posted_[id]; re-posting an earlier deadline simply strands the old entry,
// which is skipped when its bucket pops (or pruned at the far-heap top).
// This makes post() O(1) amortized with no deletion bookkeeping, at the
// cost of occasional spurious wake-ups — which the hot path already
// tolerates by construction (a wake with nothing due is a no-op cycle).
//
// Capacity: ids must fit a 64-bit due mask. The GPU maps banks to ids
// [0, B) and SMs to [B, B+S), so popping a cycle yields the due set in the
// exact bank-then-SM, ascending-id order the per-cycle loop uses.
#pragma once

#include <bit>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sttgpu::sim {

class EventWheel {
 public:
  static constexpr unsigned kBuckets = 1024;  ///< near-wheel horizon (cycles)
  static constexpr unsigned kMaxIds = 64;

  explicit EventWheel(unsigned num_ids) : num_ids_(num_ids) {
    STTGPU_REQUIRE(num_ids >= 1 && num_ids <= kMaxIds,
                   "EventWheel: id count must be in [1, 64]");
    posted_.assign(num_ids_, kNoCycle);
  }

  /// Posts (or tightens) id's deadline to @p when. Deadlines in the past
  /// are clamped to the wheel's current cycle — "due on the next pop" —
  /// which is exactly when a per-cycle loop would next visit the component.
  /// A no-op if an entry at or before @p when is already outstanding.
  void post(unsigned id, Cycle when) {
    STTGPU_ASSERT(id < num_ids_);
    if (when < cur_) when = cur_;
    if (posted_[id] <= when) return;
    posted_[id] = when;
    if (when - cur_ < kBuckets) {
      insert_near(id, when);
    } else {
      far_.push({when, id});
      if (far_.size() > far_high_water_) far_high_water_ = far_.size();
    }
  }

  /// Withdraws id's outstanding deadline (entries go stale in place).
  void cancel(unsigned id) {
    STTGPU_ASSERT(id < num_ids_);
    posted_[id] = kNoCycle;
  }

  /// Earliest outstanding posted cycle for @p id; kNoCycle when none.
  Cycle posted(unsigned id) const {
    STTGPU_ASSERT(id < num_ids_);
    return posted_[id];
  }

  /// Pops every id with a live entry at or before @p now and advances the
  /// wheel to now + 1. Returns the due set as a bitmask (bit i = id i), so
  /// the caller iterates ids in ascending order via countr_zero. The common
  /// per-cycle call (now == current()) tests exactly one occupancy bit;
  /// short fast-forward jumps walk just the spanned buckets; only jumps
  /// past kSmallSpan fall back to the full occupancy-bitmap sweep.
  std::uint64_t pop_due(Cycle now) {
    std::uint64_t due = 0;
    if (now >= cur_) {
      const Cycle span = now - cur_ + 1;
      if (occupied_ == 0) {
        // nothing near: just advance
      } else if (span <= kSmallSpan) {
        for (Cycle c = cur_; c <= now; ++c) {
          const unsigned idx = static_cast<unsigned>(c) & (kBuckets - 1);
          if ((occ_[idx >> 6] & (1ull << (idx & 63))) != 0) {
            due |= take_bucket(idx, c);
          }
        }
      } else {
        const unsigned i0 = static_cast<unsigned>(cur_) & (kBuckets - 1);
        for (unsigned w = 0; w < kWords; ++w) {
          std::uint64_t occ = occ_[w];
          while (occ != 0) {
            const unsigned idx = w * 64 + static_cast<unsigned>(std::countr_zero(occ));
            occ &= occ - 1;
            // Every occupied bucket maps to exactly one cycle in
            // [cur_, cur_ + kBuckets): the unique one congruent to its index.
            const Cycle cycle = cur_ + ((idx - i0) & (kBuckets - 1));
            if (cycle > now) continue;
            due |= take_bucket(idx, cycle);
          }
        }
      }
      cur_ = now + 1;
    }
    // Far heap: deliver matured entries, prune stale ones, and promote
    // everything now inside the near horizon.
    while (!far_.empty()) {
      const FarEntry top = far_.top();
      if (posted_[top.id] != top.when) {
        far_.pop();  // stale (cancelled or re-posted earlier)
        continue;
      }
      if (top.when <= now) {
        posted_[top.id] = kNoCycle;
        due |= 1ull << top.id;
        far_.pop();
        continue;
      }
      if (top.when - cur_ < kBuckets) {
        insert_near(top.id, top.when);
        far_.pop();
        continue;
      }
      break;
    }
    return due;
  }

  /// Earliest cycle holding any entry; kNoCycle when the wheel is empty.
  /// Conservative-early: a stale (stranded) entry can make this report a
  /// cycle whose pop turns out empty — a safe spurious wake. Prunes stale
  /// far-heap tops as a side effect, hence non-const.
  Cycle next_deadline() {
    Cycle best = kNoCycle;
    const unsigned i0 = static_cast<unsigned>(cur_) & (kBuckets - 1);
    const unsigned w0 = i0 >> 6;
    const unsigned b0 = i0 & 63;
    // Circular scan from cur_'s bucket: distances grow word by word, and the
    // low bits of the starting word (distances just under kBuckets) go last.
    for (unsigned k = 0; k <= kWords; ++k) {
      const unsigned wi = (w0 + k) & (kWords - 1);
      std::uint64_t word = occ_[wi];
      if (k == 0) {
        word &= ~0ull << b0;
      } else if (k == kWords) {
        word &= (b0 != 0) ? ((1ull << b0) - 1) : 0;
      }
      if (word != 0) {
        const unsigned idx = wi * 64 + static_cast<unsigned>(std::countr_zero(word));
        best = cur_ + ((idx - i0) & (kBuckets - 1));
        break;
      }
    }
    while (!far_.empty() && posted_[far_.top().id] != far_.top().when) {
      far_.pop();
    }
    if (!far_.empty() && far_.top().when < best) best = far_.top().when;
    return best;
  }

  Cycle current() const noexcept { return cur_; }

  // --- diagnostics (describe_state / run-report counters) ---

  /// Occupied near-wheel buckets right now (live + stranded entries).
  unsigned occupied_buckets() const noexcept { return occupied_; }
  std::size_t far_size() const noexcept { return far_.size(); }
  unsigned bucket_high_water() const noexcept { return bucket_high_water_; }
  std::size_t far_high_water() const noexcept { return far_high_water_; }
  /// Ids with an outstanding (not yet consumed/cancelled) deadline.
  unsigned posted_ids() const noexcept {
    unsigned n = 0;
    for (const Cycle c : posted_) n += (c != kNoCycle) ? 1u : 0u;
    return n;
  }

 private:
  static constexpr unsigned kWords = kBuckets / 64;
  /// Jump length up to which pop_due walks buckets directly instead of
  /// sweeping the whole occupancy bitmap (kWords word loads).
  static constexpr Cycle kSmallSpan = 64;

  struct FarEntry {
    Cycle when;
    unsigned id;
    bool operator>(const FarEntry& o) const noexcept { return when > o.when; }
  };

  /// Empties occupied bucket @p idx (whose unique mapped cycle is @p cycle)
  /// and returns the mask of live ids it held; stranded entries evaporate.
  std::uint64_t take_bucket(unsigned idx, Cycle cycle) {
    std::uint64_t due = 0;
    std::uint64_t ids = bucket_[idx];
    bucket_[idx] = 0;
    occ_[idx >> 6] &= ~(1ull << (idx & 63));
    --occupied_;
    while (ids != 0) {
      const unsigned id = static_cast<unsigned>(std::countr_zero(ids));
      ids &= ids - 1;
      if (posted_[id] == cycle) {  // live entry: consume
        posted_[id] = kNoCycle;
        due |= 1ull << id;
      }
    }
    return due;
  }

  void insert_near(unsigned id, Cycle when) {
    const unsigned idx = static_cast<unsigned>(when) & (kBuckets - 1);
    bucket_[idx] |= 1ull << id;
    const std::uint64_t bit = 1ull << (idx & 63);
    if ((occ_[idx >> 6] & bit) == 0) {
      occ_[idx >> 6] |= bit;
      if (++occupied_ > bucket_high_water_) bucket_high_water_ = occupied_;
    }
  }

  unsigned num_ids_;
  Cycle cur_ = 0;  ///< earliest cycle a new entry may land on
  std::uint64_t bucket_[kBuckets] = {};
  std::uint64_t occ_[kWords] = {};
  unsigned occupied_ = 0;  ///< occupied near buckets (maintained on post/pop)
  std::vector<Cycle> posted_;
  std::priority_queue<FarEntry, std::vector<FarEntry>, std::greater<>> far_;
  unsigned bucket_high_water_ = 0;
  std::size_t far_high_water_ = 0;
};

}  // namespace sttgpu::sim
