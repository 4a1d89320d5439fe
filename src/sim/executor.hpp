// Parallel experiment execution: a small fixed-size thread-pool job runner
// used by the Fig. 8 matrix and the ablation benches. Every simulation in
// this repo is a self-contained gpu::Gpu with no global mutable state, so
// an (arch, benchmark) sweep is embarrassingly parallel.
//
// Guarantees:
//   * Deterministic results — callers collect output by job index (each
//     job writes its own pre-allocated slot), never by completion order.
//   * n_threads == 1 runs every job inline on the calling thread, with no
//     threads spawned — bit-for-bit the old sequential behaviour.
//   * Per-job exception capture: a throwing job does not tear down the
//     pool. After all in-flight work drains, every captured failure is
//     aggregated into one SimError, ordered by job index (labels for the
//     first 5, then a count of the rest); a single failure keeps the exact
//     "job '<label>' failed: <what>" message. Once a failure is recorded,
//     not-yet-started jobs are skipped (fail fast), matching sequential
//     semantics — in-flight jobs may still fail and are all reported.
//   * Serialized progress: log_line() writes whole lines to stderr under a
//     mutex so concurrent jobs never interleave mid-line.
//
// run_jobs() is the simple fail-fast entry point. Long unattended sweeps
// that need cancellation, a progress watchdog, retry, or quarantine use the
// supervised runner in sim/supervisor.hpp, which run_jobs() is a thin
// wrapper over.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cancel.hpp"

namespace sttgpu::sim {

/// Handles a supervised job uses to cooperate with the supervisor: publish
/// forward progress through the heartbeat and honour cancellation requests
/// (user interrupt, watchdog, per-job timeout). Both pointers stay null for
/// unsupervised runs, making every helper a no-op.
struct JobControl {
  const CancelToken* cancel = nullptr;
  std::atomic<std::uint64_t>* heartbeat = nullptr;

  bool cancelled() const noexcept { return cancel != nullptr && cancel->requested(); }

  /// Publishes a monotonic progress value (e.g. the simulated cycle). The
  /// watchdog treats an unchanged heartbeat as "no forward progress".
  void beat(std::uint64_t value) const noexcept {
    if (heartbeat != nullptr) heartbeat->store(value, std::memory_order_relaxed);
  }

  /// Throws Cancelled (with the requested reason) if cancellation was
  /// requested; otherwise returns.
  void checkpoint() const;
};

/// One unit of work. @p label identifies the job in error messages and
/// progress lines (the matrix uses "arch/benchmark"); @p fn runs it, with
/// the handles it may use to cooperate with the supervisor.
struct Job {
  std::string label;
  std::function<void(const JobControl&)> fn;
};

/// Worker count used for jobs=auto: hardware_concurrency, floor 1.
unsigned default_jobs() noexcept;

/// Maps a user-facing `jobs=` value to a worker count: <= 0 means auto
/// (default_jobs()). Absurd literals (e.g. jobs=100000) are clamped to a
/// small multiple of the hardware concurrency with a stderr note instead of
/// spawning an unbounded thread pool.
unsigned resolve_jobs(std::int64_t requested) noexcept;

/// Largest worker count resolve_jobs() will grant: 4x the hardware
/// concurrency (floor 8, so explicit small values always pass through).
unsigned max_jobs() noexcept;

/// Runs @p jobs on a fixed pool of @p n_threads workers and returns when
/// all dispatched work has finished. See the header comment for ordering,
/// sequential-mode and failure semantics.
void run_jobs(std::vector<Job> jobs, unsigned n_threads);

/// Writes @p line (plus '\n') to stderr atomically with respect to other
/// log_line() callers.
void log_line(const std::string& line);

}  // namespace sttgpu::sim
