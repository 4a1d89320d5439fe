#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/cancel.hpp"
#include "common/telemetry.hpp"

namespace sttgpu::sim {
namespace {

/// A trace file private to the running test and removed when it ends:
/// ctest runs each TEST as its own process in one directory, so a shared
/// name would let parallel tests overwrite and delete each other's file.
struct TraceFile {
  const std::string path =
      std::string("test_trace_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  ~TraceFile() { std::remove(path.c_str()); }
};

TEST(Trace, SaveLoadRoundTrip) {
  const TraceFile trace;
  const std::vector<TraceRecord> records = {
      {10, 0, 0x1000, false, 2},
      {11, 1, 0x2000, true, 3},
      {400, 0, 0x1000, true, 2},
  };
  save_trace(trace.path, records);
  const auto loaded = load_trace(trace.path);
  ASSERT_EQ(loaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].cycle, records[i].cycle);
    EXPECT_EQ(loaded[i].bank, records[i].bank);
    EXPECT_EQ(loaded[i].addr, records[i].addr);
    EXPECT_EQ(loaded[i].is_store, records[i].is_store);
    EXPECT_EQ(loaded[i].sm, records[i].sm);
  }
}

TEST(Trace, LoadRejectsGarbage) {
  const TraceFile trace;
  EXPECT_THROW(load_trace("nonexistent_trace.csv"), SimError);
  {
    std::ofstream out(trace.path);
    out << "not,a,trace,header,x\n";
  }
  EXPECT_THROW(load_trace(trace.path), SimError);
}

TEST(Trace, RecordingMatchesTheRunDemand) {
  const TraceFile trace;
  const ArchSpec spec = make_arch(Architecture::kSramBaseline);
  const workload::Workload w = workload::make_benchmark("hotspot", 0.04);
  const Metrics m = record_trace(spec, w, trace.path);
  EXPECT_GT(m.ipc, 0.0);

  const auto records = load_trace(trace.path);
  EXPECT_GT(records.size(), 100u);
  // The trace is exactly the recorded L2 demand of an identical plain run.
  gpu::RunResult run;
  (void)run_one_detailed(spec, w, run);
  EXPECT_EQ(records.size(), run.l2.accesses());
}

TEST(Trace, CancelledRecordingThrowsAndWritesNoTrace) {
  const TraceFile trace;
  const ArchSpec spec = make_arch(Architecture::kSramBaseline);
  const workload::Workload w = workload::make_benchmark("hotspot", 0.04);
  CancelToken token;
  token.request(CancelReason::kUser);
  RunOptions opts;
  opts.cancel = &token;
  EXPECT_THROW((void)record_trace(spec, w, trace.path, opts), Cancelled);
  EXPECT_FALSE(std::ifstream(trace.path).good());
}

TEST(Trace, RecordingTelemetryMatchesARun) {
  const TraceFile trace;
  const ArchSpec spec = make_arch(Architecture::kC1);
  const workload::Workload w = workload::make_benchmark("bfs", 0.05);
  Telemetry recorded(2000), ran(2000);
  (void)record_trace(spec, w, trace.path, {.telemetry = &recorded});
  (void)run_one(spec, w, {.telemetry = &ran});

  ASSERT_EQ(recorded.track_count(), ran.track_count());
  for (std::size_t t = 0; t < ran.track_count(); ++t) {
    EXPECT_EQ(recorded.track_name(t), ran.track_name(t));
    EXPECT_EQ(recorded.track_samples(t), ran.track_samples(t)) << ran.track_name(t);
  }
  ASSERT_EQ(recorded.frame_count(), ran.frame_count());
  for (std::size_t f = 0; f < ran.frame_count(); ++f) {
    EXPECT_EQ(recorded.frame_cycle(f), ran.frame_cycle(f));
  }
  EXPECT_EQ(recorded.slice_count(), ran.slice_count());
  EXPECT_EQ(recorded.instant_count(), ran.instant_count());
}

TEST(Trace, ReplayReproducesHitStatistics) {
  const TraceFile trace;
  const ArchSpec spec = make_arch(Architecture::kSramBaseline);
  const workload::Workload w = workload::make_benchmark("hotspot", 0.04);
  (void)record_trace(spec, w, trace.path);
  const auto records = load_trace(trace.path);

  gpu::RunResult run;
  (void)run_one_detailed(spec, w, run);

  const ReplayResult replay = replay_trace(records, spec.uniform, spec.gpu);
  // Replay is open-loop (no SM feedback), but arrival cycles are preserved,
  // so the functional hit/miss statistics match the live run exactly.
  EXPECT_EQ(replay.stats.accesses(), run.l2.accesses());
  EXPECT_EQ(replay.stats.writes(), run.l2.writes());
  EXPECT_EQ(replay.stats.read_hits, run.l2.read_hits);
  EXPECT_EQ(replay.stats.read_misses, run.l2.read_misses);
}

TEST(Trace, ReplayEnablesCheapArchitectureSweeps) {
  const TraceFile trace;
  // Record once on the SRAM baseline, then evaluate a two-part design from
  // the trace alone.
  const ArchSpec sram = make_arch(Architecture::kSramBaseline);
  const workload::Workload w = workload::make_benchmark("kmeans", 0.04);
  (void)record_trace(sram, w, trace.path);
  const auto records = load_trace(trace.path);

  const ArchSpec c1 = make_arch(Architecture::kC1);
  const ReplayResult replay = replay_trace(records, c1.two_part_cfg, c1.gpu);
  EXPECT_EQ(replay.stats.accesses(), records.size());
  EXPECT_GT(replay.counters.get("w_demand"), 0u);
  EXPECT_GT(replay.dynamic_energy_pj, 0.0);
  // The bigger two-part cache misses less than the trace's source cache.
  const ReplayResult base = replay_trace(records, sram.uniform, sram.gpu);
  EXPECT_LT(replay.stats.miss_rate(), base.stats.miss_rate());
}

}  // namespace
}  // namespace sttgpu::sim
