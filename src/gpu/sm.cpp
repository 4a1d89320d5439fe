#include "gpu/sm.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace sttgpu::gpu {

using workload::MemSpace;
using workload::WarpInstr;

namespace {
/// Cycles from "last awaited response arrived" to the warp being schedulable.
constexpr Cycle kWakeLatency = 4;
}  // namespace

Sm::Sm(unsigned id, const GpuConfig& config) : id_(id), config_(&config), l1_(config) {}

void Sm::start_kernel(const workload::KernelSpec& kernel, std::deque<unsigned> block_queue,
                      unsigned resident_blocks, std::uint64_t warps_in_grid,
                      std::uint64_t workload_seed) {
  STTGPU_REQUIRE(resident_blocks > 0, "Sm: need at least one resident block slot");
  STTGPU_ASSERT_MSG(active_warps_ == 0, "Sm: previous kernel still running");

  const unsigned resident_warps = resident_blocks * kernel.warps_per_block();
  STTGPU_REQUIRE(resident_warps <= 64,
                 "Sm: at most 64 resident warps per SM (the ready and sleep sets are "
                 "64-bit masks); kernel '" + kernel.name + "' would keep " +
                     std::to_string(resident_warps) + " resident (" +
                     std::to_string(resident_blocks) + " blocks x " +
                     std::to_string(kernel.warps_per_block()) + " warps)");

  kernel_ = kernel;
  block_queue_ = std::move(block_queue);
  warps_in_grid_ = warps_in_grid;
  workload_seed_ = workload_seed;
  warps_per_block_ = kernel.warps_per_block();

  warps_.assign(resident_warps, WarpCtx{});
  block_live_warps_.assign(resident_blocks, 0);
  ready_bits_ = 0;
  stall_clean_ = false;
  last_issued_ = -1;

  // Size the sleep calendar from the longest sleep this kernel can take.
  // Pending wakes span at most that plus one cycle (a zero-latency sleep is
  // woken on the next cycle, after new sleeps may already be queued), so
  // the slot count must exceed the span.
  unsigned longest = std::max({kernel.compute_latency, config_->l1_hit_latency,
                               static_cast<unsigned>(kWakeLatency), 1u});
  if (kernel.shared_fraction > 0.0) longest = std::max(longest, 32 * kernel.shared_latency);
  const unsigned slots = std::bit_ceil(longest + 2);
  sleep_slots_.assign(slots, 0);
  sleep_occupied_.assign((slots + 63) / 64, 0);
  sleep_mask_ = slots - 1;
  next_wake_ = kNoCycle;
  last_wake_ = 0;

  for (unsigned slot = 0; slot < resident_blocks && !block_queue_.empty(); ++slot) {
    launch_block(slot, 0);
  }
}

void Sm::launch_block(unsigned slot, Cycle /*now*/) {
  STTGPU_ASSERT(!block_queue_.empty());
  const unsigned block_id = block_queue_.front();
  block_queue_.pop_front();

  for (unsigned w = 0; w < warps_per_block_; ++w) {
    const unsigned idx = slot * warps_per_block_ + w;
    WarpCtx& ctx = warps_[idx];
    const std::uint64_t warp_global =
        static_cast<std::uint64_t>(block_id) * warps_per_block_ + w;
    ctx.stream.emplace(kernel_, warp_global, warps_in_grid_, workload_seed_);
    ctx.pending.reset();
    ctx.state = WarpState::kReady;
    ctx.awaiting = 0;
    ctx.block_slot = slot;
    set_ready(bit(idx));
    // A launch during cycle()'s issue walk makes the fresh warps candidates
    // of this very cycle, after the walk's snapshot; outside a walk the list
    // is cleared before use anyway.
    launched_.push_back(idx);
    ++active_warps_;
  }
  block_live_warps_[slot] = warps_per_block_;
}

void Sm::wake_due(Cycle now) {
  // Wake whole slots in cycle order; the warps of one slot wake together.
  do {
    const unsigned slot = static_cast<unsigned>(next_wake_) & sleep_mask_;
    for (std::uint64_t m = sleep_slots_[slot]; m != 0; m &= m - 1) {
      warps_[static_cast<unsigned>(std::countr_zero(m))].state = WarpState::kReady;
    }
    set_ready(sleep_slots_[slot]);
    sleep_slots_[slot] = 0;
    sleep_occupied_[slot >> 6] &= ~bit(slot & 63u);
    // Every pending wake lies within one calendar turn, so the slot distance
    // to the next occupied slot is the cycle distance to the next wake.
    const unsigned gap = next_sleep_gap(slot);
    next_wake_ = gap == 0 ? kNoCycle : next_wake_ + gap;
  } while (next_wake_ <= now);
}

unsigned Sm::next_sleep_gap(unsigned slot) const noexcept {
  const unsigned words = static_cast<unsigned>(sleep_occupied_.size());
  const unsigned from = (slot + 1) & sleep_mask_;
  unsigned w = from >> 6;
  std::uint64_t m = sleep_occupied_[w] & (~std::uint64_t{0} << (from & 63u));
  // One pass over every word, then the first word again for the bits below
  // `from`, which come later cyclically.
  for (unsigned i = 0; i <= words; ++i) {
    if (m != 0) {
      return (w * 64 + static_cast<unsigned>(std::countr_zero(m)) - slot) & sleep_mask_;
    }
    w = w + 1 == words ? 0 : w + 1;
    m = sleep_occupied_[w];
  }
  return 0;
}

void Sm::sleep_warp(unsigned warp, Cycle until) {
  clear_ready(warp);
  warps_[warp].state = WarpState::kSleeping;
  // An empty calendar keeps next_wake_ == kNoCycle and a last_wake_ already
  // woken, so both bounds come out exact without a special case.
  next_wake_ = std::min(next_wake_, until);
  last_wake_ = std::max(last_wake_, until);
  STTGPU_ASSERT_MSG(last_wake_ - next_wake_ <= sleep_mask_,
                    "Sm: pending wakes span more than the sleep calendar");
  const unsigned slot = static_cast<unsigned>(until) & sleep_mask_;
  sleep_slots_[slot] |= bit(warp);
  sleep_occupied_[slot >> 6] |= bit(slot & 63u);
}

void Sm::finish_warp(unsigned warp, Cycle now) {
  WarpCtx& ctx = warps_[warp];
  STTGPU_ASSERT(ctx.state != WarpState::kInactive);
  clear_ready(warp);
  ctx.state = WarpState::kInactive;
  ctx.stream.reset();
  STTGPU_ASSERT(active_warps_ > 0);
  --active_warps_;
  STTGPU_ASSERT(block_live_warps_[ctx.block_slot] > 0);
  if (--block_live_warps_[ctx.block_slot] == 0 && !block_queue_.empty()) {
    launch_block(ctx.block_slot, now);
  }
}

void Sm::cycle(Cycle now, const SendTxnFn& send) {
  if (next_wake_ <= now) wake_due(now);
  if (ready_bits_ == 0) {
    if (active_warps_ > 0) ++stats_.idle_cycles;
    return;
  }
  // Still stalled with nothing changed since the failed walk: re-walking
  // would fail identically (pure prechecks), so only the accounting remains.
  if (stall_clean_) {
    ++stats_.stall_cycles;
    return;
  }

  // Candidates in scheduler order, from a snapshot of the ready set: GTO
  // walks it ascending (oldest first) after trying the greedy warp, LRR
  // circularly from just past the last issued warp. try_issue may finish a
  // warp, which can launch a new block; launch_block lists the fresh warps
  // in launched_, and they are this cycle's last candidates.
  launched_.clear();
  const std::uint64_t snapshot = ready_bits_;
  bool issued = false;
  if (config_->scheduler == SchedulerKind::kLrr && last_issued_ >= 0) {
    const unsigned start =
        (static_cast<unsigned>(last_issued_) + 1) % static_cast<unsigned>(warps_.size());
    const std::uint64_t from_start = snapshot & (~std::uint64_t{0} << start);
    issued = issue_first(from_start, now, send) ||
             issue_first(snapshot & ~from_start, now, send);
  } else {
    if (config_->scheduler == SchedulerKind::kGto && last_issued_ >= 0) {
      const unsigned greedy = static_cast<unsigned>(last_issued_);
      const WarpCtx& ctx = warps_[greedy];
      issued = ctx.state == WarpState::kReady && !issue_precheck_fails(ctx) &&
               try_issue(greedy, now, send);
    }
    issued = issued || issue_first(snapshot, now, send);
  }
  for (std::size_t i = 0; !issued && i < launched_.size(); ++i) {
    issued = issue_first(bit(launched_[i]), now, send);
  }

  if (!issued && ready_bits_ != 0) {
    ++stats_.stall_cycles;
    // The walk left stable state behind: every surviving candidate has its
    // pending instruction materialized and failed a pure precheck. Until a
    // wake or a response changes the inputs, skip the walk entirely. Record
    // the smallest per-kind transaction need so on_response() can tell
    // whether a freed credit can actually unstick anything: a walk failing
    // means every candidate is a non-shared load/store (anything else would
    // have issued), so the two mins cover the whole candidate set. The
    // ready set now is exactly the walk's surviving candidates: only
    // launch_block made warps ready during it.
    stall_clean_ = true;
    stall_load_need_ = kNoNeed;
    stall_store_need_ = kNoNeed;
    for (std::uint64_t m = ready_bits_; m != 0; m &= m - 1) {
      const WarpCtx& ctx = warps_[static_cast<unsigned>(std::countr_zero(m))];
      STTGPU_ASSERT(ctx.pending.has_value());
      const WarpInstr& instr = *ctx.pending;
      const unsigned need = static_cast<unsigned>(instr.transactions.size());
      if (instr.kind == WarpInstr::Kind::kLoad) {
        stall_load_need_ = need < stall_load_need_ ? need : stall_load_need_;
      } else {
        stall_store_need_ = need < stall_store_need_ ? need : stall_store_need_;
      }
    }
  }
}

bool Sm::issue_first(std::uint64_t order, Cycle now, const SendTxnFn& send) {
  for (; order != 0; order &= order - 1) {
    const unsigned warp = static_cast<unsigned>(std::countr_zero(order));
    const WarpCtx& ctx = warps_[warp];
    if (ctx.state != WarpState::kReady || issue_precheck_fails(ctx)) continue;
    if (try_issue(warp, now, send)) {
      last_issued_ = static_cast<int>(warp);
      return true;
    }
  }
  return false;
}

// Mirrors try_issue's structural prechecks for a warp whose pending
// instruction is already materialized: a true return means try_issue would
// fail those same checks before touching any state, so the call (and its
// overhead) can be skipped on the issue walk. Warps without a materialized
// instruction must go through try_issue (it may finish the warp or issue).
bool Sm::issue_precheck_fails(const WarpCtx& ctx) const noexcept {
  if (!ctx.pending) return false;
  const WarpInstr& instr = *ctx.pending;
  if (instr.kind == WarpInstr::Kind::kCompute || instr.space == MemSpace::kShared) {
    return false;
  }
  const unsigned n = static_cast<unsigned>(instr.transactions.size());
  if (instr.kind == WarpInstr::Kind::kLoad) {
    return inflight_loads_ + n > config_->max_outstanding_load_txn ||
           mshr_.size() + n > config_->l1_mshr_entries;
  }
  return inflight_stores_ + n > config_->max_outstanding_store_txn;
}

bool Sm::try_issue(unsigned warp, Cycle now, const SendTxnFn& send) {
  WarpCtx& ctx = warps_[warp];
  STTGPU_ASSERT(ctx.state == WarpState::kReady);

  if (!ctx.pending) {
    if (ctx.stream->done()) {
      finish_warp(warp, now);
      return false;
    }
    ctx.pending = ctx.stream->next();
  }
  const WarpInstr& instr = *ctx.pending;

  if (instr.kind == WarpInstr::Kind::kCompute) {
    ++stats_.issued_instructions;
    ctx.pending.reset();
    sleep_warp(warp, now + instr.latency);
    return true;
  }

  if (instr.space == MemSpace::kShared) {
    // Scratchpad access: entirely intra-SM; the generated latency already
    // includes bank-conflict serialization.
    ++stats_.issued_instructions;
    ++stats_.shared_accesses;
    ctx.pending.reset();
    sleep_warp(warp, now + std::max(1u, instr.latency));
    return true;
  }

  const unsigned l1_line = instr.space == MemSpace::kTexture ? config_->l1t_line
                                                             : config_->l1d_line;
  const unsigned n = static_cast<unsigned>(instr.transactions.size());
  STTGPU_ASSERT(n >= 1);

  if (instr.kind == WarpInstr::Kind::kLoad) {
    // Structural precheck: enough load credits for the worst case (every
    // transaction is a primary miss) and MSHR space for new entries.
    if (inflight_loads_ + n > config_->max_outstanding_load_txn) return false;
    if (mshr_.size() + n > config_->l1_mshr_entries) return false;

    ++stats_.issued_instructions;
    ++stats_.issued_loads;
    unsigned awaiting = 0;
    for (const Addr t : instr.transactions) {
      const Addr line = align_down(t, l1_line);
      ++stats_.load_transactions;
      const L1Outcome out = l1_.access(line, WarpInstr::Kind::kLoad, instr.space, now);
      if (out.hit) continue;
      auto* waiters = mshr_.find(line);
      if (waiters != nullptr) {
        if (waiters->size() < config_->l1_mshr_merge) {
          waiters->push_back(warp);
          ++stats_.mshr_merges;
          ++awaiting;
          continue;
        }
        // Merge list full: fall through and issue a duplicate fetch; rare.
      } else {
        mshr_[line].push_back(warp);
        ++awaiting;
      }
      send(L2Request{.addr = line, .is_store = false, .space = instr.space});
      ++inflight_loads_;
    }
    ctx.pending.reset();
    if (awaiting > 0) {
      ctx.awaiting = awaiting;
      clear_ready(warp);
      ctx.state = WarpState::kBlocked;
    } else {
      sleep_warp(warp, now + config_->l1_hit_latency);
    }
    return true;
  }

  // Store.
  if (inflight_stores_ + n > config_->max_outstanding_store_txn) return false;

  ++stats_.issued_instructions;
  ++stats_.issued_stores;
  for (const Addr t : instr.transactions) {
    const Addr line = align_down(t, l1_line);
    ++stats_.store_transactions;
    const L1Outcome out = l1_.access(line, WarpInstr::Kind::kStore, instr.space, now);
    if (out.send_write) {
      send(L2Request{.addr = line, .is_store = true, .space = instr.space});
      ++inflight_stores_;
    }
    for (const Addr wb : out.writebacks) send_writeback(wb, send);
  }
  ctx.pending.reset();
  sleep_warp(warp, now + 1);  // stores retire into the memory system
  return true;
}

void Sm::send_writeback(Addr addr, const SendTxnFn& send) {
  send(L2Request{
      .addr = addr, .is_store = true, .space = MemSpace::kLocal, .is_writeback = true});
  ++inflight_writebacks_;
}

void Sm::process_response(const L2Response& response, Cycle now, const SendTxnFn& send) {
  // Every response echoes what its request was, so the in-flight counts
  // alone check that each one answers a transaction this SM sent.
  if (response.is_writeback) {
    STTGPU_ASSERT_MSG(inflight_writebacks_ > 0, "Sm: write-back response with none in flight");
    --inflight_writebacks_;
    return;
  }
  if (response.is_store) {
    STTGPU_ASSERT_MSG(inflight_stores_ > 0, "Sm: store response with none in flight");
    --inflight_stores_;
    return;
  }

  // Load fill: install in L1 and wake every merged waiter.
  STTGPU_ASSERT_MSG(inflight_loads_ > 0, "Sm: load response with none in flight");
  --inflight_loads_;
  writeback_scratch_.clear();
  l1_.fill(response.addr, response.space, now, writeback_scratch_);
  for (const Addr wb : writeback_scratch_) send_writeback(wb, send);

  auto* mit = mshr_.find(response.addr);
  if (mit != nullptr) {  // else: duplicate fetch (merge overflow) case
    const auto waiters = std::move(*mit);
    mshr_.erase(response.addr);
    for (const unsigned warp : waiters) {
      WarpCtx& ctx = warps_[warp];
      STTGPU_ASSERT(ctx.state == WarpState::kBlocked && ctx.awaiting > 0);
      if (--ctx.awaiting == 0) sleep_warp(warp, now + kWakeLatency);
    }
  }
}

void Sm::recheck_stall() noexcept {
  // Completions free load/store credits and possibly MSHR entries — the
  // precheck inputs. A stalled walk unsticks only if the cheapest candidate
  // of some kind now fits at the live levels. (Writeback completions use no
  // credit and touch nothing the prechecks read, so after a writeback-only
  // batch the levels are those the failed walk already rejected and the
  // stall correctly stays clean.)
  if (!stall_clean_) return;
  if (stall_store_need_ != kNoNeed &&
      inflight_stores_ + stall_store_need_ <= config_->max_outstanding_store_txn) {
    stall_clean_ = false;
    return;
  }
  if (stall_load_need_ != kNoNeed &&
      inflight_loads_ + stall_load_need_ <= config_->max_outstanding_load_txn &&
      mshr_.size() + stall_load_need_ <= config_->l1_mshr_entries) {
    stall_clean_ = false;
  }
}

void Sm::on_response(const L2Response& response, Cycle now, const SendTxnFn& send) {
  process_response(response, now, send);
  recheck_stall();
}

void Sm::on_responses(const L2Response* responses, std::size_t n, Cycle now,
                      const SendTxnFn& send) {
  for (std::size_t i = 0; i < n; ++i) process_response(responses[i], now, send);
  if (n != 0) recheck_stall();
}

void Sm::flush_l1(Cycle /*now*/, const SendTxnFn& send) {
  for (const Addr wb : l1_.flush()) send_writeback(wb, send);
}

void Sm::sample_telemetry(Telemetry& out) const {
  const std::string p = "sm" + std::to_string(id_) + '.';
  out.counter(p + "instructions", stats_.issued_instructions);
  out.counter(p + "load_txns", stats_.load_transactions);
  out.counter(p + "store_txns", stats_.store_transactions);
  out.counter(p + "idle_cycles", stats_.idle_cycles);
  out.counter(p + "stall_cycles", stats_.stall_cycles);
}

}  // namespace sttgpu::gpu
