// L2 request-trace capture and replay.
//
// Capture wraps any L2 bank with a recorder so a full GPU run writes the
// exact demand stream each bank saw (cycle, address, read/write, SM) to a
// CSV trace. Replay drives a stand-alone bank from such a trace — no GPU
// needed — which makes cache-architecture studies (sweeps over bank
// configurations) orders of magnitude faster and lets traces be shared.
//
// Format (one header line, then one line per request):
//   cycle,bank,addr,is_store,sm
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.hpp"
#include "sim/runner.hpp"
#include "sttl2/config.hpp"

namespace sttgpu::sim {

struct TraceRecord {
  Cycle cycle = 0;
  unsigned bank = 0;
  Addr addr = 0;
  bool is_store = false;
  unsigned sm = 0;
};

/// Runs @p workload on @p spec while recording every L2 bank request to
/// @p trace_path. Returns the run metrics (the recording adds no timing).
/// Honours the run-mode knobs of @p opts (fast_forward, faults, telemetry,
/// cancel, heartbeat), as run_one does; scale/cache/jobs/inspect are
/// ignored. A cancelled recording throws Cancelled and writes no trace.
Metrics record_trace(const ArchSpec& spec, const workload::Workload& workload,
                     const std::string& trace_path, const RunOptions& opts = {});

/// Loads a trace written by record_trace. Throws SimError on parse errors.
std::vector<TraceRecord> load_trace(const std::string& trace_path);

/// Saves records (mostly useful for synthesizing traces in tests).
void save_trace(const std::string& trace_path, const std::vector<TraceRecord>& records);

/// Result of a trace-driven bank replay.
struct ReplayResult {
  gpu::L2BankStats stats;     ///< merged across banks
  CounterSet counters;        ///< implementation counters, merged
  Cycle cycles = 0;           ///< last request cycle + drain time
  double dynamic_energy_pj = 0.0;
  Watt leakage_w = 0.0;
};

/// Replays @p records against fresh two-part banks (one per bank id seen).
ReplayResult replay_trace(const std::vector<TraceRecord>& records,
                          const sttl2::TwoPartBankConfig& bank_cfg,
                          const gpu::GpuConfig& gpu_cfg = {});

/// Replays against uniform banks (SRAM or naive STT).
ReplayResult replay_trace(const std::vector<TraceRecord>& records,
                          const sttl2::UniformBankConfig& bank_cfg,
                          const gpu::GpuConfig& gpu_cfg = {});

}  // namespace sttgpu::sim
