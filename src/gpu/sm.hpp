// Streaming Multiprocessor model.
//
// The SM abstracts the SIMT ALU pipelines to an issue/latency model (one
// warp instruction issued per cycle, compute results ready after a fixed
// latency) and models the memory side in detail: coalesced transactions,
// the L1 complex, MSHR merging, and credit-bounded traffic to the L2. This
// is the level at which warp-parallelism hides memory latency — the effect
// the paper's C2/C3 register-file configurations exploit.
//
// Thread blocks are assigned to the SM as a queue; `resident` slots run
// concurrently (the occupancy limit) and a finished block slot immediately
// launches the next queued block.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/l1_complex.hpp"
#include "gpu/request.hpp"
#include "workload/stream.hpp"

namespace sttgpu {
class Telemetry;
}

namespace sttgpu::gpu {

/// Emits one 128B transaction toward the L2; returns the global request id.
using SendTxnFn = std::function<std::uint64_t(Addr addr, bool is_store)>;

struct SmStats {
  std::uint64_t issued_instructions = 0;
  std::uint64_t issued_loads = 0;
  std::uint64_t issued_stores = 0;
  std::uint64_t load_transactions = 0;
  std::uint64_t store_transactions = 0;
  std::uint64_t idle_cycles = 0;        ///< no warp ready
  std::uint64_t stall_cycles = 0;       ///< warps ready but none issuable
  std::uint64_t mshr_merges = 0;
  std::uint64_t shared_accesses = 0;
};

class Sm {
 public:
  Sm(unsigned id, const GpuConfig& config);

  /// Begins executing @p kernel with the given block queue and residency.
  /// The spec is copied: the caller's object need not outlive the kernel
  /// (warp streams launched later reference the SM's own copy).
  void start_kernel(const workload::KernelSpec& kernel, std::deque<unsigned> block_queue,
                    unsigned resident_blocks, std::uint64_t warps_in_grid,
                    std::uint64_t workload_seed);

  /// All blocks finished and no instruction remains (memory may still be
  /// in flight; the GPU tracks that separately).
  bool kernel_done() const noexcept { return active_warps_ == 0 && block_queue_.empty(); }

  /// One scheduler cycle: try to issue one warp instruction.
  void cycle(Cycle now, const SendTxnFn& send);

  /// Memory response delivered by the interconnect.
  void on_response(const L2Response& response, Cycle now, const SendTxnFn& send);

  /// Batch form: all of this SM's responses for one cycle in arrival order,
  /// with the stalled-walk recheck run once at the end instead of per
  /// response. Equivalent to calling on_response() per element: credit and
  /// MSHR levels only improve across a batch and the recheck predicate is
  /// monotone in them, so "unstuck after some response" and "unstuck after
  /// the whole batch" coincide.
  void on_responses(const L2Response* responses, std::size_t n, Cycle now,
                    const SendTxnFn& send);

  /// End-of-kernel L1 flush; dirty local lines go to L2 as writes.
  void flush_l1(Cycle now, const SendTxnFn& send);

  /// In-flight transactions this SM is still waiting on (loads + stores).
  unsigned inflight() const noexcept { return inflight_loads_ + inflight_stores_; }

  /// Earliest absolute cycle at which this SM can make progress on its own:
  /// 0 (i.e. "every cycle") while a warp is ready AND the last stall walk's
  /// outcome may have changed, the earliest sleeper's wake-up otherwise,
  /// kNoCycle when nothing is scheduled (blocked warps are woken by
  /// responses, which the memory side reports). A stalled SM whose walk
  /// already completed with no state change (stall_clean_) is skippable:
  /// re-walking is a pure check that fails identically until a wake or a
  /// memory response dirties it, and responses show up as interconnect
  /// arrivals in the caller's event lane. Stale sleep-heap entries only make
  /// this conservative (an early no-op tick), exactly as the per-cycle loop
  /// would pop them.
  Cycle next_event_cycle() const noexcept {
    if (ready_count_ > 0 && !stall_clean_) return 0;
    if (!sleep_heap_.empty()) return sleep_heap_.top().first;
    return kNoCycle;
  }

  /// Accounts @p skipped fast-forwarded cycles exactly as the per-cycle loop
  /// would have. Ready warps during a skip imply a clean stall (that is the
  /// only way next_event_cycle() lets a skip happen), where cycle() would
  /// count a stall cycle; otherwise no warp is ready and — with live warps —
  /// cycle() would count an idle cycle.
  void account_skipped_cycles(Cycle skipped) noexcept {
    if (ready_count_ > 0) {
      stats_.stall_cycles += skipped;
    } else if (active_warps_ > 0) {
      stats_.idle_cycles += skipped;
    }
  }

  /// Contributes this SM's counter tracks ("smN.instructions", ...) to the
  /// open telemetry frame; per-interval IPC falls out as the increment of
  /// instructions over the interval length.
  void sample_telemetry(Telemetry& out) const;

  const SmStats& stats() const noexcept { return stats_; }
  const L1Complex& l1() const noexcept { return l1_; }
  unsigned id() const noexcept { return id_; }

 private:
  enum class WarpState : std::uint8_t { kInactive, kReady, kSleeping, kBlocked };

  struct WarpCtx {
    std::optional<workload::WarpStream> stream;
    std::optional<workload::WarpInstr> pending;
    WarpState state = WarpState::kInactive;
    Cycle ready_at = 0;
    unsigned awaiting = 0;   ///< load transactions outstanding
    unsigned block_slot = 0;
  };

  /// Bookkeeping for one in-flight L2 transaction.
  struct TxnMeta {
    Addr line_addr = 0;            ///< L1-line address (fill key), loads only
    workload::MemSpace space = workload::MemSpace::kGlobal;
    bool is_store = false;
    bool is_writeback = false;     ///< L1 dirty eviction (uses no credit)
  };

  void launch_block(unsigned slot, Cycle now);
  void process_response(const L2Response& response, Cycle now, const SendTxnFn& send);
  /// Clears stall_clean_ if the cheapest stalled candidate of either kind
  /// now passes its prechecks with the live credit/MSHR levels.
  void recheck_stall() noexcept;
  void wake_due(Cycle now);
  bool issue_precheck_fails(const WarpCtx& ctx) const noexcept;
  bool try_issue(unsigned warp, Cycle now, const SendTxnFn& send);
  void sleep_warp(unsigned warp, Cycle until);
  void finish_warp(unsigned warp, Cycle now);
  void send_writeback(Addr addr, Cycle now, const SendTxnFn& send);

  // The ready set is a packed bitmap (one bit per warp slot), kept exactly
  // in sync with WarpState::kReady. Iterating set bits ascending reproduces
  // the old sorted-vector candidate order without the per-cycle sort.
  bool is_ready(unsigned warp) const noexcept {
    return ((ready_bits_[warp >> 6] >> (warp & 63u)) & 1u) != 0;
  }
  void set_ready(unsigned warp) noexcept {
    std::uint64_t& word = ready_bits_[warp >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (warp & 63u);
    if ((word & bit) == 0) {
      word |= bit;
      ++ready_count_;
    }
    // A new candidate can change a stalled walk's outcome.
    stall_clean_ = false;
  }
  void clear_ready(unsigned warp) noexcept {
    std::uint64_t& word = ready_bits_[warp >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (warp & 63u);
    if ((word & bit) != 0) {
      word &= ~bit;
      --ready_count_;
    }
  }
  /// Appends the ready warps with index in [lo, hi) to issue_order_.
  void append_ready_range(unsigned lo, unsigned hi);

  unsigned id_;
  const GpuConfig* config_;
  L1Complex l1_;

  // Kernel state
  workload::KernelSpec kernel_;  ///< owned copy; WarpStreams point into it
  std::deque<unsigned> block_queue_;
  std::uint64_t warps_in_grid_ = 0;
  std::uint64_t workload_seed_ = 0;
  unsigned warps_per_block_ = 0;
  std::vector<WarpCtx> warps_;
  std::vector<unsigned> block_live_warps_;  ///< per resident slot
  unsigned active_warps_ = 0;

  // Scheduling structures
  using SleepEntry = std::pair<Cycle, unsigned>;  // (ready_at, warp)
  std::priority_queue<SleepEntry, std::vector<SleepEntry>, std::greater<>> sleep_heap_;
  std::vector<std::uint64_t> ready_bits_;  ///< packed kReady set, one bit per warp
  unsigned ready_count_ = 0;               ///< population count of ready_bits_
  std::vector<unsigned> issue_order_;      ///< per-cycle candidate scratch
  int last_issued_ = -1;  // GTO greedy preference
  /// The last cycle() walk stalled (ready warps, none issuable) and nothing
  /// has changed since: a failed walk is a pure check — every candidate has
  /// its pending instruction materialized and fails a credit/MSHR precheck
  /// before touching any state — so until set_ready() or a response that can
  /// actually satisfy a candidate clears this, repeating the walk is a
  /// provable no-op.
  bool stall_clean_ = false;
  /// Smallest transaction count over the stalled load (resp. store)
  /// candidates of the last failed walk; kNoNeed when none of that kind.
  /// Valid only while stall_clean_ — any walk or candidate-set change
  /// recomputes them. The precheck pass condition is monotone in a
  /// candidate's transaction count, so if the min-need candidate still fails
  /// with the live credit/MSHR levels, every candidate does, and a response
  /// that cannot satisfy the min need provably leaves the stall stuck.
  static constexpr unsigned kNoNeed = ~0u;
  unsigned stall_load_need_ = kNoNeed;
  unsigned stall_store_need_ = kNoNeed;

  // Memory-side state
  SmallVec<Addr, 2> writeback_scratch_;     ///< per-fill eviction scratch
  FlatU64Map<SmallVec<unsigned, 8>> mshr_;  ///< line -> waiting warps
  FlatU64Map<TxnMeta> inflight_meta_;       ///< req id -> meta
  unsigned inflight_loads_ = 0;   ///< primary load transactions in flight
  unsigned inflight_stores_ = 0;  ///< store transactions in flight

  SmStats stats_;
};

}  // namespace sttgpu::gpu
