// Gpu's two stepping loops: the event-driven loop (fast_forward=true) must
// be byte-identical to the plain per-cycle reference loop (every reported
// metric, with fault injection and with a telemetry sink attached), plus
// unit tests of each component's next_event_cycle().
#include <gtest/gtest.h>

#include "bank_harness.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "gpu/gpu.hpp"
#include "gpu/interconnect.hpp"
#include "gpu/sm.hpp"
#include "sim/arch.hpp"
#include "sim/runner.hpp"
#include "sttl2/factories.hpp"

namespace sttgpu::gpu {
namespace {

workload::Workload tiny_workload() {
  workload::KernelSpec k;
  k.name = "tiny";
  k.grid_blocks = 30;
  k.threads_per_block = 64;
  k.regs_per_thread = 16;
  k.instructions_per_warp = 300;
  k.mem_fraction = 0.3;
  k.store_fraction = 0.25;
  k.pattern.kind = workload::PatternKind::kRandom;
  k.pattern.footprint_bytes = 256 * 1024;
  k.pattern.reuse_fraction = 0.3;
  k.pattern.wws_lines = 32;
  return workload::Workload{.name = "tiny", .region = "test", .kernels = {k}, .seed = 5};
}

/// Sparse workload with long quiescent DRAM waits — the fast-forward's
/// target regime, where skips actually fire.
workload::Workload sparse_workload() {
  workload::KernelSpec k;
  k.name = "sparse";
  k.grid_blocks = 2;
  k.threads_per_block = 32;
  k.instructions_per_warp = 400;
  k.mem_fraction = 0.5;
  k.store_fraction = 0.1;
  k.pattern.kind = workload::PatternKind::kRandom;
  k.pattern.footprint_bytes = 64ull << 20;
  k.pattern.reuse_fraction = 0.0;
  k.pattern.wws_lines = 0;
  return workload::Workload{.name = "sparse", .region = "test", .kernels = {k}, .seed = 9};
}

GpuConfig small_config(bool fast_forward) {
  GpuConfig cfg;
  cfg.num_sms = 4;
  cfg.num_l2_banks = 2;
  cfg.fast_forward = fast_forward;
  return cfg;
}

RunResult run_with(L2BankFactory& factory, const GpuConfig& cfg,
                   const workload::Workload& w) {
  Gpu gpu(cfg, factory);
  return gpu.run(w);
}

/// Every field of RunResult — including the full counter and per-category
/// energy maps — must match exactly between the two modes.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.runtime_s, b.runtime_s);

  EXPECT_EQ(a.l2.read_hits, b.l2.read_hits);
  EXPECT_EQ(a.l2.read_misses, b.l2.read_misses);
  EXPECT_EQ(a.l2.write_hits, b.l2.write_hits);
  EXPECT_EQ(a.l2.write_misses, b.l2.write_misses);
  EXPECT_EQ(a.l2.dram_reads, b.l2.dram_reads);
  EXPECT_EQ(a.l2.dram_writebacks, b.l2.dram_writebacks);
  EXPECT_EQ(a.l2_leakage_w, b.l2_leakage_w);

  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.dram_writes, b.dram_writes);
  EXPECT_EQ(a.l1d_hits, b.l1d_hits);
  EXPECT_EQ(a.l1d_misses, b.l1d_misses);

  EXPECT_EQ(a.sm.issued_instructions, b.sm.issued_instructions);
  EXPECT_EQ(a.sm.issued_loads, b.sm.issued_loads);
  EXPECT_EQ(a.sm.issued_stores, b.sm.issued_stores);
  EXPECT_EQ(a.sm.load_transactions, b.sm.load_transactions);
  EXPECT_EQ(a.sm.store_transactions, b.sm.store_transactions);
  EXPECT_EQ(a.sm.idle_cycles, b.sm.idle_cycles);
  EXPECT_EQ(a.sm.stall_cycles, b.sm.stall_cycles);
  EXPECT_EQ(a.sm.mshr_merges, b.sm.mshr_merges);

  EXPECT_EQ(a.l2_counters.all(), b.l2_counters.all());
  EXPECT_EQ(a.l2_energy.total_pj(), b.l2_energy.total_pj());
  const auto cat_a = a.l2_energy.categories();
  const auto cat_b = b.l2_energy.categories();
  ASSERT_EQ(cat_a.size(), cat_b.size());
  for (auto ia = cat_a.begin(), ib = cat_b.begin(); ia != cat_a.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second, ib->second) << "category " << ia->first;
  }
}

TEST(FastForwardEquivalence, UniformSramBank) {
  for (const auto* w : {"tiny", "sparse"}) {
    const workload::Workload work = w == std::string("tiny") ? tiny_workload()
                                                             : sparse_workload();
    sttl2::UniformBankConfig bank;
    bank.capacity_bytes = 64 * 1024;
    sttl2::UniformBankFactory f_off(bank, small_config(false).clock());
    sttl2::UniformBankFactory f_on(bank, small_config(true).clock());
    const RunResult off = run_with(f_off, small_config(false), work);
    const RunResult on = run_with(f_on, small_config(true), work);
    SCOPED_TRACE(w);
    expect_identical(off, on);
  }
}

TEST(FastForwardEquivalence, UniformVolatileSttBank) {
  // Volatile cells make the expiry queue an event source.
  sttl2::UniformBankConfig bank;
  bank.capacity_bytes = 64 * 1024;
  bank.cell = nvm::stt_cell_for_retention(1e-3);
  sttl2::UniformBankFactory f_off(bank, small_config(false).clock());
  sttl2::UniformBankFactory f_on(bank, small_config(true).clock());
  const workload::Workload w = sparse_workload();
  expect_identical(run_with(f_off, small_config(false), w),
                   run_with(f_on, small_config(true), w));
}

TEST(FastForwardEquivalence, TwoPartBankWithAllEventSources) {
  // Refresh queue, HR expiry queue, adaptive-threshold timer and wear
  // rotation all active at once.
  sttl2::TwoPartBankConfig bank;
  bank.hr_bytes = 32 * 1024;
  bank.hr_assoc = 4;
  bank.lr_bytes = 8 * 1024;
  bank.adaptive_threshold = true;
  bank.adapt_interval = 2048;
  bank.lr_wear_leveling = true;
  bank.wear_level_period = 2000;
  for (const bool sparse : {false, true}) {
    const workload::Workload w = sparse ? sparse_workload() : tiny_workload();
    sttl2::TwoPartBankFactory f_off(bank, small_config(false).clock());
    sttl2::TwoPartBankFactory f_on(bank, small_config(true).clock());
    SCOPED_TRACE(sparse ? "sparse" : "tiny");
    expect_identical(run_with(f_off, small_config(false), w),
                     run_with(f_on, small_config(true), w));
  }
}

// HotpathEquivalence: the event-driven loop — the simulator's hot path —
// against the reference loop on the machine shapes and run modes the
// small-config FastForwardEquivalence cases above do not reach.

/// The two extremes of the machine shapes the wake table accepts: one SM + one
/// bank, and the full 64-id due mask (the last bank is bit 63).
constexpr std::pair<unsigned, unsigned> kShapes[] = {{1, 1}, {58, 6}};

GpuConfig shaped_config(std::pair<unsigned, unsigned> shape, bool fast_forward) {
  GpuConfig cfg = small_config(fast_forward);
  cfg.num_sms = shape.first;
  cfg.num_l2_banks = shape.second;
  return cfg;
}

std::string shape_trace(std::pair<unsigned, unsigned> shape, bool sparse) {
  return std::to_string(shape.first) + " SMs + " + std::to_string(shape.second) +
         " banks, " + (sparse ? "sparse" : "tiny");
}

TEST(HotpathEquivalence, UniformSramBankAllModes) {
  sttl2::UniformBankConfig bank;
  bank.capacity_bytes = 64 * 1024;
  for (const auto& shape : kShapes) {
    for (const bool sparse : {false, true}) {
      const workload::Workload w = sparse ? sparse_workload() : tiny_workload();
      sttl2::UniformBankFactory f_off(bank, shaped_config(shape, false).clock());
      sttl2::UniformBankFactory f_on(bank, shaped_config(shape, true).clock());
      SCOPED_TRACE(shape_trace(shape, sparse));
      expect_identical(run_with(f_off, shaped_config(shape, false), w),
                       run_with(f_on, shaped_config(shape, true), w));
    }
  }
}

TEST(HotpathEquivalence, TwoPartBankWithAllEventSources) {
  // The all-event-source bank of FastForwardEquivalence on every shape: each
  // bank's wake-table slot has to stay a conservative lower bound for its refresh,
  // expiry, adaptive-threshold and wear-rotation deadlines.
  sttl2::TwoPartBankConfig bank;
  bank.hr_bytes = 32 * 1024;
  bank.hr_assoc = 4;
  bank.lr_bytes = 8 * 1024;
  bank.adaptive_threshold = true;
  bank.adapt_interval = 2048;
  bank.lr_wear_leveling = true;
  bank.wear_level_period = 2000;
  for (const auto& shape : kShapes) {
    for (const bool sparse : {false, true}) {
      const workload::Workload w = sparse ? sparse_workload() : tiny_workload();
      sttl2::TwoPartBankFactory f_off(bank, shaped_config(shape, false).clock());
      sttl2::TwoPartBankFactory f_on(bank, shaped_config(shape, true).clock());
      SCOPED_TRACE(shape_trace(shape, sparse));
      expect_identical(run_with(f_off, shaped_config(shape, false), w),
                       run_with(f_on, shaped_config(shape, true), w));
    }
  }
}

TEST(HotpathEquivalence, FaultInjectionRunsAreIdentical) {
  // Fault injection adds seeded per-bank error events; the event-driven loop must
  // replay them identically (bank partitions own their fault RNGs).
  const sim::ArchSpec spec = sim::make_arch(sim::Architecture::kC1);
  const workload::Workload w = workload::make_benchmark("bfs", 0.05);
  sim::RunOptions opts;
  opts.faults.enabled = true;
  opts.faults.seed = 42;
  opts.faults.accel = 1e3;
  opts.fast_forward = false;
  RunResult ref_run;
  const sim::Metrics ref = sim::run_one_detailed(spec, w, ref_run, opts);
  opts.fast_forward = true;
  RunResult run;
  const sim::Metrics got = sim::run_one_detailed(spec, w, run, opts);
  expect_identical(ref_run, run);
  EXPECT_EQ(ref.ipc, got.ipc);
  EXPECT_EQ(ref.cycles, got.cycles);
  EXPECT_EQ(ref.dynamic_w, got.dynamic_w);
  EXPECT_EQ(ref.l2_miss_rate, got.l2_miss_rate);
}

TEST(HotpathEquivalence, TelemetryRunsMatchPlainAggregates) {
  // A telemetry sink is purely observational: with one attached, both loops
  // produce the aggregates of the reference loop without one (the series
  // itself is compared frame by frame in test_sim_telemetry).
  const sim::ArchSpec spec = sim::make_arch(sim::Architecture::kC1);
  const workload::Workload w = workload::make_benchmark("bfs", 0.05);
  RunResult ref_run;
  (void)sim::run_one_detailed(spec, w, ref_run, {.fast_forward = false});
  for (const bool fast_forward : {false, true}) {
    Telemetry tel(10000);
    RunResult run;
    (void)sim::run_one_detailed(spec, w, run,
                                {.fast_forward = fast_forward, .telemetry = &tel});
    SCOPED_TRACE(fast_forward ? "fastforward=1" : "fastforward=0");
    expect_identical(ref_run, run);
    EXPECT_GT(tel.frame_count(), 0u);
  }
}

TEST(FastForwardEquivalence, ShortRetentionExpiryRunsArePinned) {
  // No Fig. 8 run lives long enough for an HR line to expire, so this pins
  // runs where expiries do fire: kmeans with 10 us HR and 2 us LR retention
  // on C1, and with 10 us cells on the STT baseline, with and without fault
  // injection, under both loops. Any change to which lines refresh or
  // expire, or when, moves these exact values.
  struct Pin {
    sim::Architecture arch;
    bool faults;
    Cycle cycles;
    std::uint64_t dram_writes, expired_clean, expired_dirty, refreshes;
    std::uint64_t data_loss, clean_refetch;
  };
  const Pin pins[] = {
      {sim::Architecture::kC1, false, 80092, 3638, 14527, 2979, 8114, 0, 0},
      {sim::Architecture::kSttBaseline, false, 81513, 4106, 17014, 3842, 0, 0, 0},
      {sim::Architecture::kC1, true, 118895, 35, 11216, 1074, 0, 9613, 31625},
      {sim::Architecture::kSttBaseline, true, 120138, 5, 14800, 1420, 0, 6581, 33883},
  };
  const workload::Workload w = workload::make_benchmark("kmeans", 0.5);
  for (const Pin& pin : pins) {
    sim::ArchSpec spec = sim::make_arch(pin.arch);
    spec.two_part_cfg.hr_retention_s = 1e-5;
    spec.two_part_cfg.lr_retention_s = 2e-6;
    spec.uniform.cell = nvm::stt_cell_for_retention(1e-5);
    const std::string prefix = spec.two_part ? "hr_" : "";
    for (const bool fast_forward : {false, true}) {
      sim::RunOptions opts;
      opts.fast_forward = fast_forward;
      opts.faults.enabled = pin.faults;
      opts.faults.accel = 200;
      RunResult run;
      (void)sim::run_one_detailed(spec, w, run, opts);
      SCOPED_TRACE(spec.name + (pin.faults ? " faults=1" : " faults=0") +
                   (fast_forward ? " fastforward=1" : " fastforward=0"));
      const CounterSet& c = run.l2_counters;
      EXPECT_EQ(run.cycles, pin.cycles);
      EXPECT_EQ(run.dram_writes, pin.dram_writes);
      EXPECT_EQ(c.get(prefix + "expired_clean"), pin.expired_clean);
      EXPECT_EQ(c.get(prefix + "expired_dirty"), pin.expired_dirty);
      EXPECT_EQ(c.get("refreshes"), pin.refreshes);
      EXPECT_EQ(c.get("fault_data_loss"), pin.data_loss);
      EXPECT_EQ(c.get("fault_clean_refetch"), pin.clean_refetch);
    }
  }
}

TEST(FastForwardEquivalence, WheelRejectsMoreThan64Components) {
  // The wake table's due set is one 64-bit mask over SMs + banks; a wider
  // machine is refused up front instead of silently changing loops. The
  // reference loop has no such limit.
  GpuConfig cfg;
  cfg.num_sms = 60;
  cfg.num_l2_banks = 6;
  sttl2::UniformBankConfig bank;
  bank.capacity_bytes = 64 * 1024;
  sttl2::UniformBankFactory factory(bank, cfg.clock());
  EXPECT_THROW({ Gpu gpu(cfg, factory); }, SimError);
  cfg.fast_forward = false;
  EXPECT_NO_THROW({ Gpu gpu(cfg, factory); });
}

TEST(NextEventCycle, DramChannelEmptyThenPending) {
  GpuConfig cfg;
  std::uint64_t done_cookie = 0;
  DramChannel dram(cfg, [&](std::uint64_t cookie, Cycle) { done_cookie = cookie; });
  EXPECT_EQ(dram.next_event_cycle(), kNoCycle);

  dram.read(0x1000, /*cookie=*/7, /*now=*/10);
  const Cycle ready = dram.next_event_cycle();
  ASSERT_NE(ready, kNoCycle);
  EXPECT_GT(ready, 10u);

  dram.tick(ready - 1);
  EXPECT_EQ(done_cookie, 0u);  // not yet due
  dram.tick(ready);
  EXPECT_EQ(done_cookie, 7u);  // delivered exactly at its event cycle
  EXPECT_EQ(dram.next_event_cycle(), kNoCycle);
}

TEST(NextEventCycle, InterconnectTracksArrivalsAndInFlight) {
  GpuConfig cfg;
  cfg.num_sms = 2;
  cfg.num_l2_banks = 2;
  Interconnect icnt(cfg);
  EXPECT_TRUE(icnt.idle());
  EXPECT_EQ(icnt.next_event_cycle(), kNoCycle);

  L2Request req;
  req.id = 1;
  req.addr = 0x100;
  icnt.send_request(0, req, /*now=*/5);
  EXPECT_FALSE(icnt.idle());
  EXPECT_EQ(icnt.next_event_cycle(), 5 + cfg.icnt_latency);

  unsigned delivered = 0;
  icnt.deliver_requests(
      0, /*now=*/5 + cfg.icnt_latency, [] { return true; },
      [&](const L2Request&) { ++delivered; });
  EXPECT_EQ(delivered, 1u);
  EXPECT_TRUE(icnt.idle());
  EXPECT_EQ(icnt.next_event_cycle(), kNoCycle);
}

TEST(NextEventCycle, SmWithNoKernelHasNoEvents) {
  GpuConfig cfg;
  Sm sm(0, cfg);
  EXPECT_EQ(sm.next_event_cycle(), kNoCycle);
  // Skipped-cycle accounting is a no-op without active warps.
  sm.account_skipped_cycles(100);
  EXPECT_EQ(sm.stats().idle_cycles, 0u);
}

TEST(NextEventCycle, UniformBankInputResponseAndExpiry) {
  sttl2::UniformBankConfig cfg;
  cfg.capacity_bytes = 16 * 1024;
  cfg.cell = nvm::stt_cell_for_retention(1e-4);  // volatile: expiry events exist
  testing::UniformHarness h(cfg);
  EXPECT_EQ(h.bank().next_event_cycle(), kNoCycle);

  h.send(0x1000, /*is_store=*/true);
  EXPECT_EQ(h.bank().next_event_cycle(), 0u);  // queued input => tick now

  h.run(1);  // consume the input; a DRAM fill is now outstanding
  h.drain();
  // The store was installed into a volatile line, so a retention-expiry
  // deadline must be scheduled in the future.
  const Cycle expiry = h.bank().next_event_cycle();
  ASSERT_NE(expiry, kNoCycle);
  EXPECT_GT(expiry, h.now());
}

TEST(NextEventCycle, TwoPartBankRefreshDeadlineIsEarliest) {
  sttl2::TwoPartBankConfig cfg;
  cfg.hr_bytes = 16 * 1024;
  cfg.hr_assoc = 4;
  cfg.lr_bytes = 4 * 1024;
  testing::TwoPartHarness h(cfg);
  EXPECT_EQ(h.bank().next_event_cycle(), kNoCycle);

  // A store miss fills into HR; the second store is a write hit that crosses
  // the write threshold and migrates the line into the LR part, scheduling
  // its periodic refresh. The refresh deadline (LR retention ~26.5us) is far
  // earlier than the HR expiry (~40ms), so it must be the bank's next event.
  h.send(0x2000, /*is_store=*/true);
  h.drain();
  h.send(0x2000, /*is_store=*/true);
  h.drain();
  const Cycle next = h.bank().next_event_cycle();
  ASSERT_NE(next, kNoCycle);
  EXPECT_GT(next, h.now());
  const Cycle lr_refresh_bound =
      gpu::GpuConfig{}.clock().cycles_for_ns(seconds_to_ns(cfg.lr_retention_s)) + h.now() + 1;
  EXPECT_LE(next, lr_refresh_bound);
}

TEST(NextEventCycle, TwoPartAdaptiveThresholdIsAnEventSource) {
  sttl2::TwoPartBankConfig cfg;
  cfg.hr_bytes = 16 * 1024;
  cfg.hr_assoc = 4;
  cfg.lr_bytes = 4 * 1024;
  cfg.adaptive_threshold = true;
  cfg.adapt_interval = 512;
  testing::TwoPartHarness h(cfg);
  // Even a completely idle bank must wake for its adapt timer, or the
  // fast-forward would jump past it and shift every later adapt interval.
  EXPECT_EQ(h.bank().next_event_cycle(), 512u);
}

}  // namespace
}  // namespace sttgpu::gpu
