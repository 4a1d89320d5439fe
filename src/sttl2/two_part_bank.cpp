#include "sttl2/two_part_bank.hpp"

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "nvm/cell.hpp"

namespace sttgpu::sttl2 {

TwoPartBank::TwoPartBank(unsigned bank_id, const TwoPartBankConfig& config,
                         const Clock& clock, gpu::DramChannel& dram)
    : BankBase(bank_id, config.line_bytes, config.input_queue, dram),
      config_(config),
      // Distinct RNG streams per (bank, part) keep the fault sequence
      // deterministic regardless of thread count or fast-forward mode.
      lr_({.capacity_bytes = config.lr_bytes,
           .associativity = config.lr_assoc != 0  // 0 => fully associative
                                ? config.lr_assoc
                                : static_cast<unsigned>(config.lr_bytes / config.line_bytes),
           .line_bytes = config.line_bytes,
           .data_cell = nvm::stt_cell_for_retention(config.lr_retention_s),
           .extra_tag_bits_per_line = config.lr_counter_bits},
          config.lr_subbanks, config.faults, bank_id * 2ull, clock, ledger(), "l2.lr."),
      hr_({.capacity_bytes = config.hr_bytes,
           .associativity = config.hr_assoc,
           .line_bytes = config.line_bytes,
           .data_cell = nvm::stt_cell_for_retention(config.hr_retention_s),
           .extra_tag_bits_per_line = config.hr_counter_bits},  // RC; WC is the dirty bit
          config.hr_subbanks, config.faults, bank_id * 2ull + 1, clock, ledger(), "l2.hr."),
      hr_retention_(config.hr_retention_s, config.hr_counter_bits, clock),
      lr_retention_(config.lr_retention_s, config.lr_counter_bits, clock),
      hr2lr_(config.buffer_lines),
      lr2hr_(config.buffer_lines),
      refresh_q_(lr_.tags.geometry().num_sets(), lr_.tags.geometry().associativity()),
      hr_expiry_q_(hr_.tags.geometry().num_sets(), hr_.tags.geometry().associativity()),
      lr_rewrites_(clock),
      hr_rewrites_(clock, {ms_to_ns(1.0), ms_to_ns(10.0), ms_to_ns(40.0), ms_to_ns(100.0)}) {
  STTGPU_REQUIRE(config.lr_retention_s < config.hr_retention_s,
                 "TwoPartBank: LR retention must be below HR retention");
  // Swap-buffer entries are small SRAM: one line read in + one read out.
  const auto sram = nvm::sram_cell();
  buffer_entry_pj_ = config.line_bytes * 8.0 *
                     (sram.read_energy_pj_per_bit + sram.write_energy_pj_per_bit);

  // Intern every category/counter this bank will ever charge: per-access
  // sites below use the dense handles only.
  e_.lr_refresh = ledger().intern("l2.lr.refresh");
  e_.buffer = ledger().intern("l2.buffer");

  CounterSet& cs = mutable_counters();
  c_.w_demand = cs.intern("w_demand");
  c_.w_lr = cs.intern("w_lr");
  c_.w_lr_hit = cs.intern("w_lr_hit");
  c_.w_hr = cs.intern("w_hr");
  c_.tag_probes_lr = cs.intern("tag_probes_lr");
  c_.tag_probes_hr = cs.intern("tag_probes_hr");
  c_.lr_phys_writes = cs.intern("lr_phys_writes");
  c_.hr_phys_writes = cs.intern("hr_phys_writes");
  c_.migrations = cs.intern("migrations");
  c_.migrations_blocked = cs.intern("migrations_blocked");
  c_.lr_evictions = cs.intern("lr_evictions");
  c_.lr_forced_wb = cs.intern("lr_forced_wb");
  c_.lr_forced_drop = cs.intern("lr_forced_drop");
  c_.hr_evict_dirty = cs.intern("hr_evict_dirty");
  c_.hr_evict_clean = cs.intern("hr_evict_clean");
  c_.refreshes = cs.intern("refreshes");
  c_.refresh_forced_wb = cs.intern("refresh_forced_wb");
  c_.refresh_forced_drop = cs.intern("refresh_forced_drop");
  c_.hr_expired_dirty = cs.intern("hr_expired_dirty");
  c_.hr_expired_clean = cs.intern("hr_expired_clean");
  if (config_.faults.enabled) intern_fault_ids();
  init_impl_deadline();
}

Cycle TwoPartBank::impl_next_event() const {
  return std::min(refresh_q_.next(), hr_expiry_q_.next());
}

Cycle TwoPartBank::data_write(Part& p, Addr key, Cycle now) {
  const Cycle done = p.data.occupy(key, now, p.write_occ);
  ledger().add(p.e.data_write, p.costs.data_write_pj);
  ledger().add(p.e.tag_update, p.costs.tag_update_pj);
  mutable_counters().at(&p == &lr_ ? c_.lr_phys_writes : c_.hr_phys_writes) += 1;
  return write_verify(p, key, done, p.e.data_write);
}

bool TwoPartBank::fault_read_check(bool lr_part, Addr key, unsigned way, Cycle now) {
  Part& p = lr_part ? lr_ : hr_;
  if (!p.faults.enabled()) return false;
  const RetentionClock& rc = lr_part ? lr_retention_ : hr_retention_;
  DeadlineIndex& deadlines = lr_part ? refresh_q_ : hr_expiry_q_;
  const std::uint64_t set = p.tags.geometry().set_index(key);
  const Decay d = check_hit(p, key, way, rc.retention_cycles(), now);
  if (d == Decay::kCorrected) {
    cache::LineMeta& line = p.tags.line(set, way);
    line.retention_deadline = rc.deadline(now);
    const Cycle due = lr_part ? rc.refresh_due(now) : line.retention_deadline;
    deadlines.set(set, way, due);
    sched_impl_event(due);
  } else if (d == Decay::kLost) {
    deadlines.erase(set, way);
  }
  return d == Decay::kLost;
}

void TwoPartBank::process_request(const gpu::L2Request& request, Cycle now) {
  service(request, now, /*replay=*/false);
}

void TwoPartBank::service(const gpu::L2Request& request, Cycle now, bool replay) {
  const Addr line_addr = line_base(request.addr);
  auto& s = mutable_stats();

  if (fill_outstanding(line_addr)) {
    if (!replay) {
      request.is_store ? ++s.write_misses : ++s.read_misses;
      if (request.is_store) mutable_counters().at(c_.w_demand) += 1;
    }
    request_fill(line_addr, request, now);
    return;
  }

  // --- cache search (Section 5's search selector) ---
  bool in_lr = false, in_hr = false;
  std::optional<unsigned> way;
  Cycle search_lat = 0;
  const auto probe_lr = [&] {
    mutable_counters().at(c_.tag_probes_lr) += 1;
    ledger().add(lr_.e.tag_probe, lr_.costs.tag_probe_pj);
    way = lr_.tags.probe(line_addr);
    in_lr = way.has_value();
  };
  const auto probe_hr = [&] {
    mutable_counters().at(c_.tag_probes_hr) += 1;
    ledger().add(hr_.e.tag_probe, hr_.costs.tag_probe_pj);
    way = hr_.tags.probe(line_addr);
    in_hr = way.has_value();
  };

  if (config_.search == SearchPolicy::kParallel) {
    probe_lr();
    const auto lr_way = way;
    probe_hr();
    if (in_lr) {
      way = lr_way;
      in_hr = false;  // invariant: a line lives in exactly one part
    }
    search_lat = std::max(hr_.tag_lat, lr_.tag_lat);
  } else if (request.is_store) {
    probe_lr();
    search_lat = lr_.tag_lat;
    if (!in_lr) {
      probe_hr();
      search_lat += hr_.tag_lat;
    }
  } else {
    probe_hr();
    search_lat = hr_.tag_lat;
    if (!in_hr) {
      probe_lr();
      search_lat += lr_.tag_lat;
    }
  }

  // Fault injection: a hit observes the line's stored data, so its decay
  // interval is evaluated here. An unrecoverable collapse invalidates the
  // line and the access falls through to the miss path — the transparent
  // re-fetch from DRAM. (No-op when faults are disabled.)
  if (in_lr && fault_read_check(/*lr_part=*/true, line_addr, *way, now)) {
    in_lr = false;
    way.reset();
  } else if (in_hr && fault_read_check(/*lr_part=*/false, line_addr, *way, now)) {
    in_hr = false;
    way.reset();
  }

  const Cycle start = now + search_lat;

  if (request.is_store) {
    if (!replay) mutable_counters().at(c_.w_demand) += 1;
    if (in_lr) {
      if (!replay) ++s.write_hits;
      const Cycle done = lr_write_hit(line_addr, *way, start);
      respond(request, done + config_.pipeline_cycles);
      return;
    }
    if (in_hr) {
      if (!replay) ++s.write_hits;
      const Cycle done = hr_write_hit(line_addr, *way, start);
      respond(request, done + config_.pipeline_cycles);
      return;
    }
    if (!replay) ++s.write_misses;
    request_fill(line_addr, request, now);
    return;
  }

  // Loads (a line lives in at most one part).
  if (in_hr || in_lr) {
    if (!replay) ++s.read_hits;
    Part& p = in_hr ? hr_ : lr_;
    p.tags.touch(line_addr, *way);
    respond(request, read_out(p, line_addr, start) + config_.pipeline_cycles);
    return;
  }
  if (!replay) ++s.read_misses;
  request_fill(line_addr, request, now);
}

Cycle TwoPartBank::lr_write_hit(Addr line_addr, unsigned way, Cycle start) {
  const std::uint64_t set = lr_.tags.geometry().set_index(line_addr);
  cache::LineMeta& line = lr_.tags.line(set, way);
  lr_.tags.touch(line_addr, way);
  lr_rewrites_.record(line.last_write_cycle, start);
  line.dirty = true;
  line.write_count += 1;
  line.last_write_cycle = start;
  line.retention_deadline = lr_retention_.deadline(start);
  const Cycle refresh_due = lr_retention_.refresh_due(start);
  refresh_q_.set(set, way, refresh_due);
  sched_impl_event(refresh_due);

  const Cycle done = data_write(lr_, line_addr, start);
  mutable_counters().at(c_.w_lr) += 1;
  mutable_counters().at(c_.w_lr_hit) += 1;  // served directly by an LR hit
  return done;
}

Cycle TwoPartBank::hr_write_hit(Addr line_addr, unsigned way, Cycle start) {
  const std::uint64_t set = hr_.tags.geometry().set_index(line_addr);
  cache::LineMeta& line = hr_.tags.line(set, way);
  hr_rewrites_.record(line.last_write_cycle, start);

  if (line.write_count >= config_.write_threshold && !hr2lr_.full(start)) {
    // WWS monitor fired: migrate this block to LR and perform the write there.
    mutable_counters().at(c_.migrations) += 1;
    const std::uint32_t wc = line.write_count + 1;
    read_out(hr_, line_addr, start);  // read the block out of HR
    ledger().add(hr_.e.tag_update, hr_.costs.tag_update_pj);
    ledger().add(e_.buffer, buffer_entry_pj_);
    hr_.tags.invalidate(line_addr, way);
    hr_expiry_q_.erase(set, way);

    const Cycle done = lr_install(line_addr, /*dirty=*/true, wc, start, start);
    hr2lr_.add(done);
    return done;
  }

  if (line.write_count >= config_.write_threshold) {
    mutable_counters().at(c_.migrations_blocked) += 1;
  }

  hr_.tags.touch(line_addr, way);
  line.dirty = true;
  line.write_count += 1;
  line.last_write_cycle = start;
  line.retention_deadline = hr_retention_.deadline(start);
  hr_expiry_q_.set(set, way, line.retention_deadline);
  sched_impl_event(line.retention_deadline);

  const Cycle done = data_write(hr_, line_addr, start);
  mutable_counters().at(c_.w_hr) += 1;
  return done;
}

Cycle TwoPartBank::lr_install(Addr addr, bool dirty, std::uint32_t write_count,
                              Cycle last_write, Cycle now) {
  const unsigned way = lr_.tags.pick_victim(addr);
  const std::uint64_t set = lr_.tags.geometry().set_index(addr);
  if (lr_.tags.valid(set, way)) lr_evict(set, way, now);

  cache::LineMeta& line = lr_.tags.fill(addr, way, now);
  line.dirty = dirty;
  line.write_count = write_count;
  line.last_write_cycle = last_write;
  line.retention_deadline = lr_retention_.deadline(now);
  const Cycle refresh_due = lr_retention_.refresh_due(now);
  refresh_q_.set(set, way, refresh_due);
  sched_impl_event(refresh_due);

  const Cycle done = data_write(lr_, addr, now);
  mutable_counters().at(c_.w_lr) += 1;
  return done;
}

void TwoPartBank::lr_evict(std::uint64_t set, unsigned way, Cycle now) {
  const cache::LineMeta old = lr_.tags.line(set, way);
  const Addr addr = lr_.tags.addr_of(set, way);
  mutable_counters().at(c_.lr_evictions) += 1;

  read_out(lr_, addr, now);  // read the block out of LR
  const bool intact =
      carries(lr_, lr_.tags.line(set, way), lr_retention_.retention_cycles(), now);
  lr_.tags.invalidate(addr, way);
  refresh_q_.erase(set, way);
  if (!intact) return;  // collapsed in LR: nothing usable to carry

  if (!lr2hr_.full(now)) {
    ledger().add(e_.buffer, buffer_entry_pj_);
    // The write counter counts writes since (re)insertion into HR and
    // restarts here. With TH1 the monitor is the modified bit, which a
    // dirty block naturally carries back into HR (the paper's free WWS
    // monitor); higher thresholds make returning blocks re-earn migration.
    const std::uint32_t wc = (config_.write_threshold == 1 && old.dirty) ? 1 : 0;
    const Cycle done = hr_install(addr, old.dirty, wc, now);
    lr2hr_.add(done);
    return;
  }
  // Paper: on buffer full, dirty lines are forced to main memory.
  if (old.dirty) {
    dram_writeback(addr, now);
    mutable_counters().at(c_.lr_forced_wb) += 1;
  } else {
    mutable_counters().at(c_.lr_forced_drop) += 1;
  }
}

Cycle TwoPartBank::hr_install(Addr addr, bool dirty, std::uint32_t write_count, Cycle now) {
  const unsigned victim = hr_.tags.pick_victim(addr);
  const std::uint64_t set = hr_.tags.geometry().set_index(addr);
  if (hr_.tags.valid(set, victim) && hr_.tags.line(set, victim).dirty) {
    write_back(hr_, hr_.tags.line(set, victim), hr_.tags.addr_of(set, victim),
               hr_retention_.retention_cycles(), now);
    mutable_counters().at(c_.hr_evict_dirty) += 1;
  } else if (hr_.tags.valid(set, victim)) {
    mutable_counters().at(c_.hr_evict_clean) += 1;
  }

  cache::LineMeta& line = hr_.tags.fill(addr, victim, now);
  line.dirty = dirty;
  line.write_count = write_count;
  line.last_write_cycle = write_count != 0 ? now : kNoCycle;
  line.retention_deadline = hr_retention_.deadline(now);
  hr_expiry_q_.set(set, victim, line.retention_deadline);
  sched_impl_event(line.retention_deadline);

  return data_write(hr_, addr, now);
}

void TwoPartBank::process_fill(Addr line_addr, Cycle now) {
  const Cycle done = hr_install(line_addr, /*dirty=*/false, /*write_count=*/0, now);

  const Waiters& w = take_waiters(line_addr);
  for (const auto& req : w.reads) {
    respond(req, done + hr_.tag_lat + config_.pipeline_cycles);
  }
  // Fetch-on-write: replay the merged stores against the now-present line.
  for (const auto& req : w.writes) service(req, now, /*replay=*/true);
}

void TwoPartBank::maintenance(Cycle now) {
  do_refresh(now);
  do_hr_expiry(now);
}

void TwoPartBank::do_refresh(Cycle now) {
  // Telemetry bookkeeping for the batch ("refresh storm"): how many live
  // lines this call touched and when the last staged rewrite completes.
  std::uint64_t storm_lines = 0;
  Cycle storm_end = now;
  while (refresh_q_.next() <= now) {
    const DeadlineIndex::Slot e = refresh_q_.pop_front();
    cache::LineMeta& line = lr_.tags.line(e.set, e.way);
    const Addr addr = lr_.tags.addr_of(e.set, e.way);
    ++storm_lines;

    // Refresh-as-scrub: the refresh read passes through the ECC check, so a
    // collapse that happened since the last write is caught here rather
    // than refreshed into a "fresh" corrupt line. Correctable collapses are
    // repaired by the rewrite below; unrecoverable ones drop the line.
    if (!carries(lr_, line, lr_retention_.retention_cycles(), now)) {
      lr_.tags.invalidate(addr, e.way);
      continue;
    }

    if (!lr2hr_.full(now)) {
      // In-place refresh staged through the LR->HR buffer: read + rewrite.
      lr_.data.occupy(addr, now, lr_.read_occ);
      Cycle done = lr_.data.occupy(addr, now, lr_.write_occ);
      ledger().add(e_.lr_refresh, lr_.costs.data_read_pj + lr_.costs.data_write_pj);
      mutable_counters().at(c_.refreshes) += 1;
      mutable_counters().at(c_.lr_phys_writes) += 1;
      line.retention_deadline = lr_retention_.deadline(now);
      refresh_q_.set(e.set, e.way, lr_retention_.refresh_due(now));
      done = write_verify(lr_, addr, done, e_.lr_refresh);
      if (done > storm_end) storm_end = done;
      lr2hr_.add(done);
      continue;
    }
    // No buffer slot: avoid data loss by writing back (dirty) / dropping.
    if (line.dirty) {
      dram_writeback(addr, now);
      mutable_counters().at(c_.refresh_forced_wb) += 1;
    } else {
      mutable_counters().at(c_.refresh_forced_drop) += 1;
    }
    lr_.tags.invalidate(addr, e.way);
  }
  if (telemetry() != nullptr && storm_lines > 0) {
    telemetry()->slice(telemetry_prefix() + "refresh",
                       "refresh x" + std::to_string(storm_lines), now, storm_end);
  }
}

void TwoPartBank::do_hr_expiry(Cycle now) {
  while (hr_expiry_q_.next() <= now) {
    const DeadlineIndex::Slot e = hr_expiry_q_.pop_front();
    cache::LineMeta& line = hr_.tags.line(e.set, e.way);
    const Addr addr = hr_.tags.addr_of(e.set, e.way);
    if (line.dirty) {
      // The expiry writeback reads the data out at the very end of its
      // retention window — the most collapse-prone moment in HR.
      write_back(hr_, line, addr, hr_retention_.retention_cycles(), now);
      mutable_counters().at(c_.hr_expired_dirty) += 1;
    } else {
      mutable_counters().at(c_.hr_expired_clean) += 1;
    }
    hr_.tags.invalidate(addr, e.way);
  }
}

void TwoPartBank::sample_telemetry(Cycle now, Telemetry& out) {
  BankBase::sample_telemetry(now, out);
  const std::string p = telemetry_prefix();
  out.gauge(p + "lr_occupancy",
            static_cast<double>(lr_.tags.valid_count()) /
                static_cast<double>(lr_.tags.geometry().num_lines()));
  out.gauge(p + "hr_occupancy",
            static_cast<double>(hr_.tags.valid_count()) /
                static_cast<double>(hr_.tags.geometry().num_lines()));
  // in_use() prunes entries whose destination write already completed —
  // idempotent at a fixed `now`, so sampling never perturbs timing.
  out.gauge(p + "lr2hr_depth", static_cast<double>(lr2hr_.in_use(now)));
  out.gauge(p + "hr2lr_depth", static_cast<double>(hr2lr_.in_use(now)));
}

void TwoPartBank::describe_state(std::ostream& os, Cycle now) const {
  BankBase::describe_state(os, now);
  os << " | hr2lr=" << hr2lr_.in_use_at(now) << '/' << hr2lr_.capacity()
     << " lr2hr=" << lr2hr_.in_use_at(now) << '/' << lr2hr_.capacity()
     << " refresh_q=" << refresh_q_.size() << " hr_expiry_q=" << hr_expiry_q_.size();
}

}  // namespace sttgpu::sttl2
