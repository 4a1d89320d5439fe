#include "sttl2/uniform_bank.hpp"

#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace sttgpu::sttl2 {

namespace {

power::ArrayCosts cost_array(const UniformBankConfig& c) {
  power::ArraySpec spec;
  spec.capacity_bytes = c.capacity_bytes;
  spec.associativity = c.associativity;
  spec.line_bytes = c.line_bytes;
  spec.data_cell = c.cell;
  spec.extra_tag_bits_per_line = c.cell.needs_refresh ? 2 : 0;  // retention counter
  return power::evaluate_array(spec);
}

}  // namespace

UniformBank::UniformBank(unsigned bank_id, const UniformBankConfig& config,
                         const Clock& clock, gpu::DramChannel& dram)
    : BankBase(bank_id, config.line_bytes, config.input_queue, dram),
      config_(config),
      clock_(clock),
      costs_(cost_array(config)),
      tags_({config.capacity_bytes, config.associativity, config.line_bytes}),
      data_(config.subbanks),
      // SRAM cells (retention_s == 0) force the model inert inside the ctor.
      faults_(config.faults, config.cell.retention_s, clock, bank_id),
      expiry_(tags_.geometry().num_sets(), tags_.geometry().associativity()),
      rewrites_(clock),
      write_var_(tags_.geometry().num_sets(), tags_.geometry().associativity()) {
  tag_lat_ = clock_.cycles_for_ns(costs_.tag_latency_ns);
  read_occ_ = clock_.cycles_for_ns(costs_.data_read_latency_ns);
  write_occ_ = clock_.cycles_for_ns(costs_.data_write_latency_ns);
  if (config_.cell.retention_s > 0.0 && config_.cell.needs_refresh) {
    retention_cycles_ = clock_.cycles_for_ns(seconds_to_ns(config_.cell.retention_s));
  }
  if (config_.early_write_termination) {
    STTGPU_REQUIRE(config_.ewt_flip_fraction > 0.0 && config_.ewt_flip_fraction <= 1.0,
                   "UniformBank: ewt_flip_fraction must be in (0, 1]");
    write_energy_scale_ = config_.ewt_flip_fraction;
  }
  e_.tag_probe = ledger().intern("l2.tag_probe");
  e_.tag_update = ledger().intern("l2.tag_update");
  e_.data_read = ledger().intern("l2.data_read");
  e_.data_write = ledger().intern("l2.data_write");
  c_.evict_dirty = mutable_counters().intern("evict_dirty");
  c_.evict_clean = mutable_counters().intern("evict_clean");
  c_.expired_dirty = mutable_counters().intern("expired_dirty");
  c_.expired_clean = mutable_counters().intern("expired_clean");
  if (faults_.enabled()) {
    e_.fault_scrub = ledger().intern("l2.fault.scrub");
    CounterSet& cs = mutable_counters();
    c_.fault_ecc_corrected = cs.intern("fault_ecc_corrected");
    c_.fault_ecc_detected = cs.intern("fault_ecc_detected");
    c_.fault_clean_refetch = cs.intern("fault_clean_refetch");
    c_.fault_data_loss = cs.intern("fault_data_loss");
    c_.fault_wv_retries = cs.intern("fault_wv_retries");
    c_.fault_wv_escalations = cs.intern("fault_wv_escalations");
  }
  init_impl_deadline();
}

Cycle UniformBank::impl_next_event() const { return expiry_.next(); }

void UniformBank::schedule_expiry(std::uint64_t set, unsigned way, Cycle deadline) {
  if (retention_cycles_ == 0) return;
  expiry_.set(set, way, deadline);
  sched_impl_event(deadline);
}

Cycle UniformBank::data_write(Addr line_addr, Cycle now) {
  Cycle done = data_.occupy(line_addr, now, write_occ_);
  ledger().add(e_.data_write, costs_.data_write_pj * write_energy_scale_);
  if (faults_.enabled()) {
    const FaultModel::WriteVerify wv = faults_.run_write_verify();
    if (wv.retries != 0) {
      mutable_counters().at(c_.fault_wv_retries) += wv.retries;
      for (unsigned i = 0; i < wv.retries; ++i) {
        done = data_.occupy(line_addr, done, write_occ_);
        ledger().add(e_.data_write, costs_.data_write_pj * write_energy_scale_);
      }
    }
    if (wv.escalated) {
      // Boosted pulse: twice the energy and pulse width, always sticks.
      mutable_counters().at(c_.fault_wv_escalations) += 1;
      done = data_.occupy(line_addr, done, 2 * write_occ_);
      ledger().add(e_.data_write, 2.0 * costs_.data_write_pj * write_energy_scale_);
    }
  }
  return done;
}

bool UniformBank::fault_read_check(Addr line_addr, unsigned way, Cycle now) {
  if (!faults_.enabled()) return false;
  const std::uint64_t set = tags_.geometry().set_index(line_addr);
  cache::LineMeta& line = tags_.line(set, way);
  const auto collapse = faults_.sample_collapse(fault_interval_start(line, retention_cycles_), now);
  line.fault_check_cycle = now;
  if (collapse == FaultModel::Collapse::kNone) return false;
  if (config_.faults.ecc && collapse == FaultModel::Collapse::kSingleBit) {
    // SECDED corrects in flight; the controller scrubs (rewrites the
    // corrected line), which restarts the decay clock.
    mutable_counters().at(c_.fault_ecc_corrected) += 1;
    data_.occupy(line_addr, now, write_occ_);
    ledger().add(e_.fault_scrub, costs_.data_write_pj * write_energy_scale_);
    if (retention_cycles_ != 0) {
      line.retention_deadline = now + retention_cycles_;
      schedule_expiry(set, way, line.retention_deadline);
    }
    return false;
  }
  if (!line.dirty) {
    // Clean data collapsed: the demand access re-fetches from DRAM.
    mutable_counters().at(c_.fault_clean_refetch) += 1;
  } else {
    if (config_.faults.ecc) mutable_counters().at(c_.fault_ecc_detected) += 1;
    mutable_counters().at(c_.fault_data_loss) += 1;
    if (telemetry() != nullptr) {
      telemetry()->instant(telemetry_prefix() + "faults", "data_loss", now);
    }
  }
  tags_.invalidate(line_addr, way);
  expiry_.erase(set, way);
  return true;
}

UniformBank::Carry UniformBank::fault_carry_trial(cache::LineMeta& line, Cycle now) {
  if (!faults_.enabled()) return Carry::kOk;
  const auto collapse = faults_.sample_collapse(fault_interval_start(line, retention_cycles_), now);
  line.fault_check_cycle = now;
  if (collapse == FaultModel::Collapse::kNone) return Carry::kOk;
  if (config_.faults.ecc && collapse == FaultModel::Collapse::kSingleBit) {
    mutable_counters().at(c_.fault_ecc_corrected) += 1;  // corrected in flight
    return Carry::kOk;
  }
  if (!line.dirty) {
    mutable_counters().at(c_.fault_clean_refetch) += 1;
    return Carry::kDrop;
  }
  if (config_.faults.ecc) mutable_counters().at(c_.fault_ecc_detected) += 1;
  mutable_counters().at(c_.fault_data_loss) += 1;
  if (telemetry() != nullptr) {
    telemetry()->instant(telemetry_prefix() + "faults", "data_loss", now);
  }
  return Carry::kDrop;
}

void UniformBank::write_line(cache::LineMeta& line, std::uint64_t set, unsigned way,
                             Cycle now) {
  write_var_.record_write(set, way);
  line.dirty = true;
  rewrites_.record(line.last_write_cycle, now);
  line.write_count += 1;
  line.last_write_cycle = now;
  if (retention_cycles_ != 0) {
    line.retention_deadline = now + retention_cycles_;
    schedule_expiry(set, way, line.retention_deadline);
  }
}

void UniformBank::process_request(const gpu::L2Request& request, Cycle now) {
  const Addr line_addr = line_base(request.addr);
  auto& s = mutable_stats();

  ledger().add(e_.tag_probe, costs_.tag_probe_pj);

  // A line with an outstanding fill is not yet present; merge.
  if (fill_outstanding(line_addr)) {
    request.is_store ? ++s.write_misses : ++s.read_misses;
    request_fill(line_addr, request, now);
    return;
  }

  auto way = tags_.probe(line_addr);
  // Fault injection: a hit observes the stored data; evaluate its decay
  // interval. An unrecoverable collapse drops the line and the access falls
  // through to the miss path (transparent DRAM re-fetch).
  if (way && fault_read_check(line_addr, *way, now)) way.reset();
  if (way) {
    const std::uint64_t set = tags_.geometry().set_index(line_addr);
    cache::LineMeta& line = tags_.line(set, *way);
    tags_.touch(line_addr, *way);
    if (request.is_store) {
      ++s.write_hits;
      const Cycle done = data_write(line_addr, now);
      ledger().add(e_.tag_update, costs_.tag_update_pj);
      write_line(line, set, *way, now);
      respond(request, done + tag_lat_ + config_.pipeline_cycles);
    } else {
      ++s.read_hits;
      const Cycle done = data_.occupy(line_addr, now, read_occ_);
      ledger().add(e_.data_read, costs_.data_read_pj);
      respond(request, done + tag_lat_ + config_.pipeline_cycles);
    }
    return;
  }

  request.is_store ? ++s.write_misses : ++s.read_misses;
  request_fill(line_addr, request, now);
}

void UniformBank::process_fill(Addr line_addr, Cycle now) {
  // Victim handling.
  const unsigned victim = tags_.pick_victim(line_addr);
  const std::uint64_t set = tags_.geometry().set_index(line_addr);
  if (tags_.valid(set, victim) && tags_.line(set, victim).dirty) {
    const Addr victim_addr = tags_.addr_of(set, victim);
    data_.occupy(victim_addr, now, read_occ_);  // read the victim out
    ledger().add(e_.data_read, costs_.data_read_pj);
    if (fault_carry_trial(tags_.line(set, victim), now) == Carry::kOk) {
      dram_writeback(victim_addr, now);
    }
    mutable_counters().at(c_.evict_dirty) += 1;
  } else if (tags_.valid(set, victim)) {
    mutable_counters().at(c_.evict_clean) += 1;
  }

  // Install the line (a full-line write into the data array).
  cache::LineMeta& line = tags_.fill(line_addr, victim, now);
  Cycle done = data_write(line_addr, now);
  ledger().add(e_.tag_update, costs_.tag_update_pj);
  if (retention_cycles_ != 0) {
    line.retention_deadline = now + retention_cycles_;
    schedule_expiry(set, victim, line.retention_deadline);
  }

  // Wake the merged requests: reads complete with the fill; stores are then
  // applied (fetch-on-write) and complete after their write.
  const Waiters& w = take_waiters(line_addr);
  for (const auto& req : w.reads) respond(req, done + tag_lat_ + config_.pipeline_cycles);
  for (const auto& req : w.writes) {
    done = data_write(line_addr, now);
    write_line(line, set, victim, now);
    respond(req, done + tag_lat_ + config_.pipeline_cycles);
  }
}

void UniformBank::maintenance(Cycle now) {
  while (expiry_.next() <= now) {
    const DeadlineIndex::Slot e = expiry_.pop_front();
    cache::LineMeta& line = tags_.line(e.set, e.way);
    const Addr addr = tags_.addr_of(e.set, e.way);
    if (line.dirty) {
      data_.occupy(addr, now, read_occ_);
      ledger().add(e_.data_read, costs_.data_read_pj);
      if (fault_carry_trial(line, now) == Carry::kOk) dram_writeback(addr, now);
      mutable_counters().at(c_.expired_dirty) += 1;
    } else {
      mutable_counters().at(c_.expired_clean) += 1;
    }
    tags_.invalidate(addr, e.way);
  }
}

void UniformBank::sample_telemetry(Cycle now, Telemetry& out) {
  BankBase::sample_telemetry(now, out);
  out.gauge(telemetry_prefix() + "occupancy",
            static_cast<double>(tags_.valid_count()) /
                static_cast<double>(tags_.geometry().num_lines()));
}

}  // namespace sttgpu::sttl2
