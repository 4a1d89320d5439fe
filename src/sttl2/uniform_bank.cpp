#include "sttl2/uniform_bank.hpp"

#include "common/telemetry.hpp"

namespace sttgpu::sttl2 {

UniformBank::UniformBank(unsigned bank_id, const UniformBankConfig& config,
                         const Clock& clock, gpu::DramChannel& dram)
    : BankBase(bank_id, config.line_bytes, config.input_queue, dram),
      config_(config),
      // SRAM cells (retention_s == 0) leave the fault model inert.
      part_({.capacity_bytes = config.capacity_bytes,
             .associativity = config.associativity,
             .line_bytes = config.line_bytes,
             .data_cell = config.cell,
             .extra_tag_bits_per_line = config.cell.needs_refresh ? 2u : 0u},  // retention counter
            config.subbanks, config.faults, bank_id, clock, ledger(), "l2."),
      expiry_(part_.tags.geometry().num_sets(), part_.tags.geometry().associativity()),
      rewrites_(clock),
      write_var_(part_.tags.geometry().num_sets(), part_.tags.geometry().associativity()) {
  if (config_.cell.retention_s > 0.0 && config_.cell.needs_refresh) {
    retention_cycles_ = clock.cycles_for_ns(seconds_to_ns(config_.cell.retention_s));
  }
  c_.evict_dirty = mutable_counters().intern("evict_dirty");
  c_.evict_clean = mutable_counters().intern("evict_clean");
  c_.expired_dirty = mutable_counters().intern("expired_dirty");
  c_.expired_clean = mutable_counters().intern("expired_clean");
  if (part_.faults.enabled()) intern_fault_ids();
  init_impl_deadline();
}

Cycle UniformBank::impl_next_event() const { return expiry_.next(); }

void UniformBank::schedule_expiry(std::uint64_t set, unsigned way, Cycle deadline) {
  if (retention_cycles_ == 0) return;
  expiry_.set(set, way, deadline);
  sched_impl_event(deadline);
}

Cycle UniformBank::data_write(Addr line_addr, Cycle now) {
  const Cycle done = part_.data.occupy(line_addr, now, part_.write_occ);
  ledger().add(part_.e.data_write, part_.costs.data_write_pj);
  return write_verify(part_, line_addr, done, part_.e.data_write);
}

bool UniformBank::fault_read_check(Addr line_addr, unsigned way, Cycle now) {
  if (!part_.faults.enabled()) return false;
  const std::uint64_t set = part_.tags.geometry().set_index(line_addr);
  const Decay d = check_hit(part_, line_addr, way, retention_cycles_, now);
  if (d == Decay::kCorrected && retention_cycles_ != 0) {
    cache::LineMeta& line = part_.tags.line(set, way);  // scrubbed: re-arm its expiry
    line.retention_deadline = now + retention_cycles_;
    schedule_expiry(set, way, line.retention_deadline);
  } else if (d == Decay::kLost) {
    expiry_.erase(set, way);
  }
  return d == Decay::kLost;
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
  cache::TagArray& tags = part_.tags;

  ledger().add(part_.e.tag_probe, part_.costs.tag_probe_pj);

  // A line with an outstanding fill is not yet present; merge.
  if (fill_outstanding(line_addr)) {
    request.is_store ? ++s.write_misses : ++s.read_misses;
    request_fill(line_addr, request, now);
    return;
  }

  auto way = tags.probe(line_addr);
  // Fault injection: a hit observes the stored data; evaluate its decay
  // interval. An unrecoverable collapse drops the line and the access falls
  // through to the miss path (transparent DRAM re-fetch).
  if (way && fault_read_check(line_addr, *way, now)) way.reset();
  if (way) {
    const Cycle ack = part_.tag_lat + config_.pipeline_cycles;
    tags.touch(line_addr, *way);
    if (request.is_store) {
      ++s.write_hits;
      const Cycle done = data_write(line_addr, now);
      ledger().add(part_.e.tag_update, part_.costs.tag_update_pj);
      const std::uint64_t set = tags.geometry().set_index(line_addr);
      write_line(tags.line(set, *way), set, *way, now);
      respond(request, done + ack);
    } else {
      ++s.read_hits;
      respond(request, read_out(part_, line_addr, now) + ack);
    }
    return;
  }

  request.is_store ? ++s.write_misses : ++s.read_misses;
  request_fill(line_addr, request, now);
}

void UniformBank::process_fill(Addr line_addr, Cycle now) {
  cache::TagArray& tags = part_.tags;
  // Victim handling.
  const unsigned victim = tags.pick_victim(line_addr);
  const std::uint64_t set = tags.geometry().set_index(line_addr);
  if (tags.valid(set, victim) && tags.line(set, victim).dirty) {
    write_back(part_, tags.line(set, victim), tags.addr_of(set, victim), retention_cycles_,
               now);
    mutable_counters().at(c_.evict_dirty) += 1;
  } else if (tags.valid(set, victim)) {
    mutable_counters().at(c_.evict_clean) += 1;
  }

  // Install the line (a full-line write into the data array).
  cache::LineMeta& line = tags.fill(line_addr, victim, now);
  Cycle done = data_write(line_addr, now);
  ledger().add(part_.e.tag_update, part_.costs.tag_update_pj);
  if (retention_cycles_ != 0) {
    line.retention_deadline = now + retention_cycles_;
    schedule_expiry(set, victim, line.retention_deadline);
  }

  // Wake the merged requests: reads complete with the fill; stores are then
  // applied (fetch-on-write) and complete after their write.
  const Cycle ack = part_.tag_lat + config_.pipeline_cycles;
  const Waiters& w = take_waiters(line_addr);
  for (const auto& req : w.reads) respond(req, done + ack);
  for (const auto& req : w.writes) {
    done = data_write(line_addr, now);
    write_line(line, set, victim, now);
    respond(req, done + ack);
  }
}

void UniformBank::maintenance(Cycle now) {
  while (expiry_.next() <= now) {
    const DeadlineIndex::Slot e = expiry_.pop_front();
    cache::LineMeta& line = part_.tags.line(e.set, e.way);
    const Addr addr = part_.tags.addr_of(e.set, e.way);
    if (line.dirty) {
      write_back(part_, line, addr, retention_cycles_, now);
      mutable_counters().at(c_.expired_dirty) += 1;
    } else {
      mutable_counters().at(c_.expired_clean) += 1;
    }
    part_.tags.invalidate(addr, e.way);
  }
}

void UniformBank::sample_telemetry(Cycle now, Telemetry& out) {
  BankBase::sample_telemetry(now, out);
  out.gauge(telemetry_prefix() + "occupancy",
            static_cast<double>(part_.tags.valid_count()) /
                static_cast<double>(part_.tags.geometry().num_lines()));
}

}  // namespace sttgpu::sttl2
