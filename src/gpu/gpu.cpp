#include "gpu/gpu.hpp"

#include <bit>
#include <sstream>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "gpu/occupancy.hpp"

namespace sttgpu::gpu {

namespace {
/// Hard ceiling against livelock bugs; far above any expected run length.
constexpr Cycle kMaxCycles = 2'000'000'000;
}  // namespace

Gpu::Gpu(const GpuConfig& config, L2BankFactory& l2_factory)
    : config_(config), factory_(&l2_factory), icnt_(config_) {
  banks_.resize(config_.num_l2_banks);
  dram_.reserve(config_.num_l2_banks);
  for (unsigned b = 0; b < config_.num_l2_banks; ++b) {
    dram_.push_back(std::make_unique<DramChannel>(
        config_, [this, b](std::uint64_t cookie, Cycle now) {
          banks_[b]->on_dram_read_done(cookie, now);
        }));
  }
  for (unsigned b = 0; b < config_.num_l2_banks; ++b) {
    banks_[b] = l2_factory.make_bank(b, *dram_[b]);
    STTGPU_REQUIRE(banks_[b] != nullptr, "L2BankFactory returned a null bank");
  }
  sms_.reserve(config_.num_sms);
  senders_.reserve(config_.num_sms);
  for (unsigned s = 0; s < config_.num_sms; ++s) {
    sms_.push_back(std::make_unique<Sm>(s, config_));
    senders_.push_back([this, s](L2Request req) {
      req.id = next_request_id_++;
      req.sm_id = s;
      req.created = now_;
      const unsigned b = bank_of(req.addr);
      const Cycle arrival = icnt_.send_request(b, req, now_);
      if (wake_.has_value()) {
        // Sends fired outside a step (L1 flush at now_) must land this very
        // cycle when the fabric is latency-free; the table's clamp would
        // defer them to the next pop, so arm due_now_mask_ out of band.
        // Next-cycle arrivals ride the same mask, which the very next step
        // consumes.
        if (arrival <= now_ + 1) {
          due_now_mask_ |= 1ull << b;
        } else {
          wake_->post(b, arrival);
        }
      }
    });
  }
  if (config_.fast_forward) {
    const unsigned ids = config_.num_l2_banks + config_.num_sms;
    STTGPU_REQUIRE(ids <= sim::WakeTable::kMaxIds,
                   "Gpu: fast_forward schedules SMs + L2 banks in a 64-id wake table; "
                   "this config has " + std::to_string(config_.num_sms) + " SMs + " +
                       std::to_string(config_.num_l2_banks) +
                       " banks — reduce them or disable fast_forward");
    wake_.emplace(ids);
    sm_id_base_ = config_.num_l2_banks;
    bank_mask_ = (config_.num_l2_banks == 64) ? ~0ull : ((1ull << config_.num_l2_banks) - 1);
    sm_mask_ = ((ids == 64) ? ~0ull : ((1ull << ids) - 1)) & ~bank_mask_;
    due_now_mask_ = bank_mask_ | sm_mask_;  // everything due at cycle 0
    sm_acct_.assign(config_.num_sms, 0);
  }
  if (config_.telemetry != nullptr) {
    tel_ = config_.telemetry;
    STTGPU_REQUIRE(tel_->frame_count() == 0 && !tel_->in_frame(),
                   "Gpu: telemetry sink already holds frames — attach a fresh "
                   "Telemetry per run");
    tel_->set_us_per_cycle(1e6 / config_.core_clock_hz);
    tel_interval_ = tel_->interval();
    tel_next_ = tel_interval_;
    for (auto& bank : banks_) bank->attach_telemetry(tel_);
  }
  if (config_.cancel != nullptr || config_.heartbeat != nullptr) sup_next_ = 0;
}

void Gpu::supervision_point() {
  sup_next_ = now_ + kSupervisionInterval;
  if (config_.heartbeat != nullptr) {
    config_.heartbeat->store(now_, std::memory_order_relaxed);
  }
  if (config_.cancel == nullptr) return;
  const CancelReason reason = config_.cancel->reason();
  if (reason == CancelReason::kNone) return;
  std::ostringstream os;
  switch (reason) {
    case CancelReason::kUser:
      // Clean interrupt: no dump — the artifacts already on disk are the
      // useful output, and the matrix prints its own resume summary.
      os << "cancelled at cycle " << now_;
      break;
    case CancelReason::kWatchdog:
      os << "watchdog abort (no forward progress) at cycle " << now_ << state_dump();
      break;
    default:
      os << "job timeout at cycle " << now_ << state_dump();
      break;
  }
  throw Cancelled(reason, os.str());
}

std::string Gpu::state_dump() const {
  std::ostringstream os;
  os << "\n  diagnostic state at cycle " << now_ << ':';
  for (unsigned b = 0; b < banks_.size(); ++b) {
    os << "\n    l2b" << b << ": ";
    banks_[b]->describe_state(os, now_);
  }
  os << "\n    icnt " << (icnt_.idle() ? "idle" : "busy");
  os << ", dram";
  for (unsigned c = 0; c < dram_.size(); ++c) {
    os << ' ' << c << ':' << (dram_[c]->idle() ? "idle" : "busy");
  }
  std::uint64_t inflight = 0;
  for (const auto& sm : sms_) inflight += sm->inflight();
  os << "\n    sm in-flight transactions " << inflight;
  os << "\n    icnt express/queued: requests " << icnt_.request_express() << '/'
     << icnt_.request_queued() << ", responses " << icnt_.response_express() << '/'
     << icnt_.response_queued();
  if (wake_.has_value()) {
    const Cycle next = wake_->next_deadline();
    os << "\n    wake table: next deadline ";
    if (next == kNoCycle) {
      os << "none";
    } else {
      os << next;
    }
    os << ", due-now mask 0x" << std::hex << due_now_mask_ << std::dec;
  }
  return os.str();
}

void Gpu::telemetry_sample(Cycle at) {
  // The sampled SM counters must cover every cycle before the boundary, so
  // deferred accounting is flushed first — the series stays byte-identical
  // with the per-cycle accounting the plain loop does.
  flush_sm_accounting(at);
  tel_->begin_frame(at);
  for (const auto& sm : sms_) sm->sample_telemetry(*tel_);
  for (auto& bank : banks_) bank->sample_telemetry(at, *tel_);
  for (unsigned c = 0; c < dram_.size(); ++c) dram_[c]->sample_telemetry(c, *tel_);
  icnt_.sample_telemetry(*tel_);
  tel_->end_frame();
}

unsigned Gpu::bank_of(Addr addr) const noexcept {
  return static_cast<unsigned>((addr / config_.l2_line_bytes) % config_.num_l2_banks);
}

void Gpu::step() {
  if (!wake_.has_value()) {
    step_reference();
    return;
  }
  // The plain loop's phase order, but the due set comes from the table: one
  // pop yields the exact components with something at or before now_, plus
  // the out-of-band arrivals armed via due_now_mask_.
  const std::uint64_t due = wake_->pop_due(now_) | due_now_mask_;
  due_now_mask_ = 0;

  const std::uint64_t due_banks = due & bank_mask_;
  for (std::uint64_t bits = due_banks; bits != 0; bits &= bits - 1) {
    const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
    icnt_.deliver_requests(
        b, now_, [&] { return banks_[b]->accepting(); },
        [&](const L2Request& req) { banks_[b]->enqueue(req, now_); });
  }
  for (std::uint64_t bits = due_banks; bits != 0; bits &= bits - 1) {
    const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
    dram_[b]->tick(now_);
    banks_[b]->tick(now_);
  }
  response_scratch_.clear();
  for (std::uint64_t bits = due_banks; bits != 0; bits &= bits - 1) {
    const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
    banks_[b]->drain_responses(now_, response_scratch_);
    const Cycle dram_next = dram_[b]->next_event_cycle();
    const Cycle bank_next = banks_[b]->next_event_cycle();
    Cycle lane = icnt_.next_request_arrival(b);
    if (dram_next < lane) lane = dram_next;
    if (bank_next < lane) lane = bank_next;
    // Due-next components ride due_now_mask_ (consumed by the very next
    // step), which keeps the dominant back-to-back case out of the table;
    // deadlines at or before now_ (e.g. a backpressured queue front) fold
    // into the same mask — exactly the table's clamp.
    if (lane <= now_ + 1) {
      due_now_mask_ |= 1ull << b;
    } else if (lane != kNoCycle) {
      wake_->post(b, lane);
    }
  }
  std::uint64_t sm_bits = due & sm_mask_;
  for (const L2Response& resp : response_scratch_) {
    const Cycle arrival = icnt_.send_response(resp, now_);
    const unsigned id = sm_id_base_ + resp.sm_id;
    if (arrival <= now_) {
      sm_bits |= 1ull << id;  // latency-free fabric: deliver this cycle
    } else if (arrival == now_ + 1) {
      due_now_mask_ |= 1ull << id;
    } else {
      wake_->post(id, arrival);
    }
  }
  while (sm_bits != 0) {
    const unsigned id = static_cast<unsigned>(std::countr_zero(sm_bits));
    sm_bits &= sm_bits - 1;
    const unsigned s = id - sm_id_base_;
    // Catch up the idle/stall accounting for the skipped stretch, with the
    // state the SM had throughout it (nothing mutates an inactive SM, so
    // the per-cycle classification is constant over the gap). cycle()
    // accounts the current cycle itself.
    if (now_ > sm_acct_[s]) {
      sms_[s]->account_skipped_cycles(now_ - sm_acct_[s]);
    }
    sm_acct_[s] = now_ + 1;
    // Batch-drain: all of this SM's same-cycle responses in one call, so the
    // stalled-walk recheck runs once per batch (see Sm::on_responses for the
    // monotonicity argument that makes this byte-identical).
    sm_resp_scratch_.clear();
    icnt_.deliver_responses(s, now_, [&](const L2Response& resp) {
      sm_resp_scratch_.push_back(resp);
    });
    if (!sm_resp_scratch_.empty()) {
      sms_[s]->on_responses(sm_resp_scratch_.data(), sm_resp_scratch_.size(), now_,
                            senders_[s]);
    }
    sms_[s]->cycle(now_, senders_[s]);
    const Cycle sm_next = sms_[s]->next_event_cycle();
    const Cycle resp_next = icnt_.next_response_arrival(s);
    const Cycle lane = sm_next < resp_next ? sm_next : resp_next;
    if (lane <= now_ + 1) {
      due_now_mask_ |= 1ull << id;
    } else if (lane != kNoCycle) {
      wake_->post(id, lane);
    }
  }
  ++now_;
  if (now_ == tel_next_) {
    telemetry_sample(now_);
    tel_next_ += tel_interval_;
  }
}

void Gpu::step_reference() {
  // Memory side first so that this cycle's completions can wake warps.
  for (unsigned b = 0; b < banks_.size(); ++b) {
    icnt_.deliver_requests(
        b, now_, [&] { return banks_[b]->accepting(); },
        [&](const L2Request& req) { banks_[b]->enqueue(req, now_); });
  }
  for (auto& d : dram_) d->tick(now_);
  for (auto& bank : banks_) bank->tick(now_);
  response_scratch_.clear();
  for (auto& bank : banks_) bank->drain_responses(now_, response_scratch_);
  for (const L2Response& resp : response_scratch_) icnt_.send_response(resp, now_);

  for (unsigned s = 0; s < sms_.size(); ++s) {
    icnt_.deliver_responses(s, now_, [&](const L2Response& resp) {
      sms_[s]->on_response(resp, now_, senders_[s]);
    });
    sms_[s]->cycle(now_, senders_[s]);
  }
  ++now_;
  // Interval boundary: every cycle < now_ is fully processed, cycle now_ has
  // not started — the exact state the event-driven loop's fast-forward
  // reproduces.
  // tel_next_ is kNoCycle when telemetry is off, so this never fires then.
  if (now_ == tel_next_) {
    telemetry_sample(now_);
    tel_next_ += tel_interval_;
  }
}

void Gpu::flush_sm_accounting(Cycle at) {
  for (unsigned s = 0; s < sm_acct_.size(); ++s) {
    if (at > sm_acct_[s]) {
      sms_[s]->account_skipped_cycles(at - sm_acct_[s]);
      sm_acct_[s] = at;
    }
  }
}

void Gpu::fast_forward() {
  // The table caches its earliest deadline, so every quiescent cycle gets a
  // skip attempt. Skipped SM idle accounting is deferred (sm_acct_), so only
  // telemetry boundaries need walking here — each sample flushes the
  // accounting up to its own boundary, at exactly the cycle the plain loop
  // would have sampled.
  // kNoCycle (nothing scheduled anywhere) falls through to plain stepping so
  // a livelocked configuration still hits the cycle ceiling diagnostics.
  if (!wake_.has_value() || due_now_mask_ != 0) return;
  const Cycle next = wake_->next_deadline();
  if (next == kNoCycle || next <= now_) return;
  while (tel_next_ <= next) {
    telemetry_sample(tel_next_);
    tel_next_ += tel_interval_;
  }
  now_ = next;
}

bool Gpu::memory_idle() const {
  if (!icnt_.idle()) return false;
  for (const auto& bank : banks_) {
    if (!bank->idle()) return false;
  }
  for (const auto& d : dram_) {
    if (!d->idle()) return false;
  }
  for (const auto& sm : sms_) {
    if (sm->inflight() != 0) return false;
  }
  return true;
}

void Gpu::drain_memory() {
  while (!memory_idle()) {
    step();
    STTGPU_REQUIRE(now_ < kMaxCycles, "Gpu: memory drain exceeded the cycle ceiling");
    // Skip only while the drain continues: once the step above emptied the
    // memory system, jumping to some future event (e.g. a stale SM sleep
    // entry) would inflate now_ past where the plain loop stops.
    if (!memory_idle()) fast_forward();
    if (now_ >= sup_next_) supervision_point();
  }
  // Loads and stores are in memory_idle(); write-backs hold no credit, so
  // their count is checked here: every one was answered.
  for (const auto& sm : sms_) {
    STTGPU_ASSERT_MSG(sm->inflight_writebacks() == 0,
                      "Gpu: memory drained with L1 write-backs unanswered");
  }
}

void Gpu::run_kernel(const workload::KernelSpec& kernel, std::uint64_t seed) {
  // start_kernel mutates SM state, so any deferred idle accounting still
  // carrying the pre-launch classification must be applied first.
  flush_sm_accounting(now_);
  const Cycle kernel_start = now_;
  const Occupancy occ = compute_occupancy(kernel, config_);

  std::vector<std::deque<unsigned>> queues(config_.num_sms);
  for (unsigned blk = 0; blk < kernel.grid_blocks; ++blk) {
    queues[blk % config_.num_sms].push_back(blk);
  }
  const std::uint64_t warps_in_grid =
      static_cast<std::uint64_t>(kernel.grid_blocks) * kernel.warps_per_block();
  for (unsigned s = 0; s < config_.num_sms; ++s) {
    sms_[s]->start_kernel(kernel, std::move(queues[s]), occ.blocks_per_sm, warps_in_grid,
                          seed);
  }
  // Fresh warps are ready immediately: arm every SM for this very cycle.
  due_now_mask_ |= sm_mask_;

  const auto all_done = [&] {
    for (const auto& sm : sms_) {
      if (!sm->kernel_done()) return false;
    }
    return true;
  };
  // Event-driven completion: check every cycle (kernel_done() can only flip
  // during a step, never during a fast-forwarded gap, so both the plain and
  // the fast-forwarded loop stop at the same cycle) and skip quiescent
  // stretches — long memory waits — in one jump.
  while (!all_done()) {
    step();
    STTGPU_REQUIRE(now_ < kMaxCycles, "Gpu: kernel exceeded the cycle ceiling");
    // Same guard as drain_memory(): never jump past the completion cycle.
    if (!all_done()) fast_forward();
    if (now_ >= sup_next_) supervision_point();
  }

  if (tel_ != nullptr) tel_->slice("kernel", kernel.name, kernel_start, now_);

  // Inter-kernel boundary: L1s are flushed (no coherence across launches).
  // flush_l1 mutates SM state, so deferred accounting flushes first.
  flush_sm_accounting(now_);
  const Cycle drain_start = now_;
  for (unsigned s = 0; s < config_.num_sms; ++s) sms_[s]->flush_l1(now_, senders_[s]);
  drain_memory();
  if (tel_ != nullptr && now_ > drain_start) {
    tel_->slice("drain", kernel.name, drain_start, now_);
  }
}

RunResult Gpu::run(const workload::Workload& workload) {
  STTGPU_REQUIRE(!workload.kernels.empty(), "Gpu::run: workload has no kernels");

  for (std::size_t k = 0; k < workload.kernels.size(); ++k) {
    run_kernel(workload.kernels[k], workload.seed + 0x1000 * (k + 1));
  }

  // Final partial interval: both loop modes end at the identical now_, so
  // this closing frame is identical too. Skipped when the run happened to
  // end exactly on a sampled boundary.
  if (tel_ != nullptr && now_ > tel_next_ - tel_interval_) telemetry_sample(now_);

  // Idle/stall tallies must cover every cycle before assembly.
  flush_sm_accounting(now_);

  RunResult r;
  r.cycles = now_;
  for (const auto& sm : sms_) {
    r.instructions += sm->stats().issued_instructions;
    r.sm.issued_instructions += sm->stats().issued_instructions;
    r.sm.issued_loads += sm->stats().issued_loads;
    r.sm.issued_stores += sm->stats().issued_stores;
    r.sm.load_transactions += sm->stats().load_transactions;
    r.sm.store_transactions += sm->stats().store_transactions;
    r.sm.idle_cycles += sm->stats().idle_cycles;
    r.sm.stall_cycles += sm->stats().stall_cycles;
    r.sm.mshr_merges += sm->stats().mshr_merges;
    r.l1d_hits += sm->l1().data_counters().load_hits;
    r.l1d_misses += sm->l1().data_counters().load_misses;
  }
  r.ipc = r.cycles ? static_cast<double>(r.instructions) / static_cast<double>(r.cycles)
                   : 0.0;
  r.runtime_s = config_.clock().seconds_for_cycles(r.cycles);
  for (const auto& bank : banks_) {
    r.l2.merge(bank->stats());
    r.l2_leakage_w += bank->leakage_w();
    r.l2_energy.merge(bank->energy());
    factory_->collect(*bank, r.l2_counters);
  }
  for (const auto& d : dram_) {
    r.dram_reads += d->reads();
    r.dram_writes += d->writes();
    r.sched.dram_express_reads += d->express_reads();
    r.sched.dram_queued_reads += d->queued_reads();
  }
  r.sched.icnt_request_express = icnt_.request_express();
  r.sched.icnt_request_queued = icnt_.request_queued();
  r.sched.icnt_response_express = icnt_.response_express();
  r.sched.icnt_response_queued = icnt_.response_queued();
  return r;
}

}  // namespace sttgpu::gpu
