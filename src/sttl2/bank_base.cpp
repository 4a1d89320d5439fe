#include "sttl2/bank_base.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace sttgpu::sttl2 {

namespace {
struct ReadyLater {
  bool operator()(const gpu::L2Response& a, const gpu::L2Response& b) const noexcept {
    return a.ready > b.ready;  // min-heap on ready
  }
};
}  // namespace

Part::Part(const power::ArraySpec& spec, unsigned subbanks,
           const FaultInjectionConfig& fault_config, std::uint64_t fault_salt,
           const Clock& clock, power::EnergyLedger& ledger, const std::string& prefix)
    : costs(power::evaluate_array(spec)),
      tags({spec.capacity_bytes, spec.associativity, spec.line_bytes}),
      data(subbanks),
      faults(fault_config, spec.data_cell.retention_s, clock, fault_salt),
      tag_lat(clock.cycles_for_ns(costs.tag_latency_ns)),
      read_occ(clock.cycles_for_ns(costs.data_read_latency_ns)),
      write_occ(clock.cycles_for_ns(costs.data_write_latency_ns)),
      e{ledger.intern(prefix + "tag_probe"), ledger.intern(prefix + "tag_update"),
        ledger.intern(prefix + "data_read"), ledger.intern(prefix + "data_write")} {}

BankBase::BankBase(unsigned bank_id, unsigned line_bytes, unsigned input_queue_limit,
                   gpu::DramChannel& dram)
    : bank_id_(bank_id),
      line_bytes_(line_bytes),
      input_queue_limit_(input_queue_limit),
      dram_(&dram) {
  STTGPU_REQUIRE(is_pow2(line_bytes), "BankBase: line size must be a power of two");
  STTGPU_REQUIRE(input_queue_limit > 0, "BankBase: need a positive input queue limit");
}

bool BankBase::accepting() const { return input_.size() < input_queue_limit_; }

void BankBase::enqueue(const gpu::L2Request& request, Cycle /*now*/) {
  STTGPU_ASSERT_MSG(accepting(), "BankBase: enqueue on full input queue");
  input_.push_back(request);
}

void BankBase::on_dram_read_done(std::uint64_t cookie, Cycle /*now*/) {
  fills_ready_.push_back(static_cast<Addr>(cookie));
}

void BankBase::tick(Cycle now) {
  if (!fills_ready_.empty()) {
    // Swap into the member scratch first: process_fill may trigger new DRAM
    // reads, but those complete on later ticks only (DRAM latency > 0), so
    // fills_ready_ is not repopulated while the swapped-out batch is walked
    // — and both vectors keep their capacity across ticks.
    fills_scratch_.clear();
    fills_scratch_.swap(fills_ready_);
    for (const Addr line : fills_scratch_) process_fill(line, now);
  }
  while (!input_.empty()) {
    const gpu::L2Request req = input_.front();
    input_.pop_front();
    process_request(req, now);
  }
  // Deadline gate: with every implementation deadline in the future the
  // call would be a pure heap-top check per queue (provably no-op), so the
  // cached deadline — lowered at every scheduling site, recomputed after
  // every run — skips it without changing any result.
  if (now >= maint_next_) {
    maintenance(now);
    maint_next_ = impl_next_event();
  }
}

void BankBase::drain_responses(Cycle now, std::vector<gpu::L2Response>& out) {
  while (!responses_.empty() && responses_.front().ready <= now) {
    std::pop_heap(responses_.begin(), responses_.end(), ReadyLater{});
    out.push_back(responses_.back());
    responses_.pop_back();
  }
}

bool BankBase::idle() const {
  return input_.empty() && responses_.empty() && pending_.empty() &&
         fills_ready_.empty() && impl_idle();
}

Cycle BankBase::next_event_cycle() const {
  // Queued demand requests and arrived fills are processed on the next tick,
  // whenever that is: "event due now". (pending_ DRAM reads need no entry —
  // their completion is the owning DramChannel's event.)
  if (!input_.empty() || !fills_ready_.empty()) return 0;
  // The cached deadline is never later than the true implementation event
  // (see sched_impl_event), so it can stand in for the virtual call here.
  Cycle next = maint_next_;
  // responses_ is a min-heap on ready: front matures first.
  if (!responses_.empty() && responses_.front().ready < next) {
    next = responses_.front().ready;
  }
  return next;
}

void BankBase::request_fill(Addr line, const gpu::L2Request& request, Cycle now) {
  Waiters* w = pending_.find(line);
  const bool fresh = w == nullptr;
  if (fresh) {
    // Recycle a retired entry so the waiter vectors keep their capacity
    // instead of re-growing from empty on every fill.
    Waiters recycled;
    if (!free_waiters_.empty()) {
      recycled = std::move(free_waiters_.back());
      free_waiters_.pop_back();
      recycled.reads.clear();
      recycled.writes.clear();
    }
    w = &pending_[line];
    *w = std::move(recycled);
  }
  if (request.is_store) {
    w->writes.push_back(request);
  } else {
    w->reads.push_back(request);
  }
  if (fresh) {
    dram_->read(line, static_cast<std::uint64_t>(line), now);
    ++stats_.dram_reads;
  }
}

const BankBase::Waiters& BankBase::take_waiters(Addr line) {
  Waiters* w = pending_.find(line);
  STTGPU_ASSERT_MSG(w != nullptr, "BankBase: fill without waiters entry");
  waiters_scratch_.reads.clear();
  waiters_scratch_.writes.clear();
  waiters_scratch_.reads.swap(w->reads);
  waiters_scratch_.writes.swap(w->writes);
  free_waiters_.push_back(std::move(*w));
  pending_.erase(line);
  return waiters_scratch_;
}

void BankBase::respond(const gpu::L2Request& request, Cycle ready) {
  gpu::L2Response resp;
  resp.id = request.id;
  resp.addr = request.addr;
  resp.is_store = request.is_store;
  resp.space = request.space;
  resp.is_writeback = request.is_writeback;
  resp.sm_id = request.sm_id;
  resp.ready = ready;
  responses_.push_back(resp);
  std::push_heap(responses_.begin(), responses_.end(), ReadyLater{});
}

void BankBase::dram_writeback(Addr line, Cycle now) {
  dram_->write(line, now);
  ++stats_.dram_writebacks;
}

void BankBase::intern_fault_ids() {
  fault_ids_.scrub = energy_.intern("l2.fault.scrub");
  fault_ids_.ecc_corrected = counters_.intern("fault_ecc_corrected");
  fault_ids_.ecc_detected = counters_.intern("fault_ecc_detected");
  fault_ids_.clean_refetch = counters_.intern("fault_clean_refetch");
  fault_ids_.data_loss = counters_.intern("fault_data_loss");
  fault_ids_.wv_retries = counters_.intern("fault_wv_retries");
  fault_ids_.wv_escalations = counters_.intern("fault_wv_escalations");
}

BankBase::Decay BankBase::sample_decay(Part& p, cache::LineMeta& line,
                                       Cycle retention_cycles, Cycle now) {
  const auto collapse =
      p.faults.sample_collapse(fault_interval_start(line, retention_cycles), now);
  line.fault_check_cycle = now;
  if (collapse == FaultModel::Collapse::kNone) return Decay::kIntact;
  const bool ecc = p.faults.config().ecc;
  if (ecc && collapse == FaultModel::Collapse::kSingleBit) {
    counters_.at(fault_ids_.ecc_corrected) += 1;
    return Decay::kCorrected;
  }
  if (!line.dirty) {
    counters_.at(fault_ids_.clean_refetch) += 1;  // DRAM still holds the data
    return Decay::kLost;
  }
  // Dirty and uncorrectable: the only up-to-date copy is gone.
  if (ecc) counters_.at(fault_ids_.ecc_detected) += 1;
  counters_.at(fault_ids_.data_loss) += 1;
  if (telemetry_ != nullptr) telemetry_->instant(telemetry_prefix() + "faults", "data_loss", now);
  return Decay::kLost;
}

BankBase::Decay BankBase::check_hit(Part& p, Addr key, unsigned way, Cycle retention_cycles,
                                    Cycle now) {
  cache::LineMeta& line = p.tags.line(p.tags.geometry().set_index(key), way);
  const Decay d = sample_decay(p, line, retention_cycles, now);
  if (d == Decay::kCorrected) {
    p.data.occupy(key, now, p.write_occ);
    energy_.add(fault_ids_.scrub, p.costs.data_write_pj);
  } else if (d == Decay::kLost) {
    p.tags.invalidate(key, way);
  }
  return d;
}

Cycle BankBase::write_verify(Part& p, Addr key, Cycle done, power::EnergyId category) {
  if (!p.faults.enabled()) return done;
  const FaultModel::WriteVerify wv = p.faults.run_write_verify();
  counters_.at(fault_ids_.wv_retries) += wv.retries;
  for (unsigned i = 0; i < wv.retries; ++i) {
    done = p.data.occupy(key, done, p.write_occ);
    energy_.add(category, p.costs.data_write_pj);
  }
  if (wv.escalated) {
    // Boosted pulse: twice the energy and pulse width, always sticks.
    counters_.at(fault_ids_.wv_escalations) += 1;
    done = p.data.occupy(key, done, 2 * p.write_occ);
    energy_.add(category, 2.0 * p.costs.data_write_pj);
  }
  return done;
}

void BankBase::write_back(Part& p, cache::LineMeta& line, Addr addr, Cycle retention_cycles,
                          Cycle now) {
  read_out(p, addr, now);
  if (carries(p, line, retention_cycles, now)) dram_writeback(addr, now);
}

std::string BankBase::telemetry_prefix() const {
  return "l2b" + std::to_string(bank_id_) + '.';
}

void BankBase::sample_telemetry(Cycle /*now*/, Telemetry& out) {
  const std::string p = telemetry_prefix();
  out.counter(p + "read_hits", stats_.read_hits);
  out.counter(p + "read_misses", stats_.read_misses);
  out.counter(p + "write_hits", stats_.write_hits);
  out.counter(p + "write_misses", stats_.write_misses);
  out.counter(p + "dram_reads", stats_.dram_reads);
  out.counter(p + "dram_writebacks", stats_.dram_writebacks);
  // Every implementation counter (migrations, refreshes, expiries, fault
  // recoveries, ...) becomes a per-bank track; ids are interned at bank
  // construction so the set is stable across frames.
  for (CounterId id = 0; id < static_cast<CounterId>(counters_.size()); ++id) {
    out.counter(p + counters_.name(id), counters_.at(id));
  }
  out.gauge(p + "input_queue", static_cast<double>(input_.size()));
}

void BankBase::describe_state(std::ostream& os, Cycle /*now*/) const {
  os << "input=" << input_.size() << '/' << input_queue_limit_
     << " pending_fills=" << pending_.size() << " responses=" << responses_.size()
     << " fills_ready=" << fills_ready_.size();
}

}  // namespace sttgpu::sttl2
