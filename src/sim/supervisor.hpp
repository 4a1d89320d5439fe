// Run supervision for long unattended sweeps: cooperative cancellation, a
// progress watchdog, bounded retry with capped exponential backoff, and
// failure quarantine.
//
// run_supervised() executes a job list on the executor's thread-pool model
// (same by-index determinism and inline jobs=1 mode as run_jobs) and layers
// on:
//   * Cancellation — an external CancelToken (typically installed from
//     SIGINT/SIGTERM handlers) is forwarded into every job's private token;
//     jobs observe it at their next checkpoint, unwind with Cancelled, and
//     the result is marked interrupted. Not-yet-started jobs never start.
//   * Watchdog — a job may publish a heartbeat; a monitor thread cancels any
//     running job whose heartbeat has not advanced for watchdog_s seconds of
//     wall clock, with reason kWatchdog. The sweep service uses it: its
//     sandbox worker's Gpu beats its cycle count into a shared page, so a
//     hung worker stops beating and is killed. job_timeout_s bounds an
//     attempt's total wall clock with reason kTimeout; an in-process job
//     reports a diagnostic state dump from the throw site (the Gpu appends
//     per-bank queue depths and swap-buffer state).
//   * Retry — a job failing with an ordinary exception is re-run up to
//     `retries` extra times, with capped exponential backoff. Cancellations
//     and watchdog/timeout kills are never retried (a livelocked job would
//     livelock again).
//   * Quarantine — with keep_going, a permanently failing job is recorded in
//     its outcome slot and the rest of the sweep still runs to completion;
//     without it the pool fails fast exactly like run_jobs.
//
// Supervision is cooperative: it cancels jobs, it cannot destroy a thread
// that never reaches a checkpoint. The Gpu checkpoints every few thousand
// cycles, so any simulation that is still executing its cycle loop — the
// livelock case job_timeout_s exists for — observes the request promptly.
//
// Everything here is run-mode only: no knob participates in the result-
// cache fingerprint and supervised runs produce byte-identical simulation
// results.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/executor.hpp"

namespace sttgpu::sim {

/// Terminal state of one supervised job.
enum class JobStatus {
  kOk,         ///< completed (possibly after retries)
  kFailed,     ///< ordinary failure, retries exhausted
  kCancelled,  ///< external (user) cancellation
  kWatchdog,   ///< killed: no heartbeat progress for watchdog_s
  kTimeout,    ///< killed: attempt exceeded job_timeout_s
  kSkipped,    ///< never started (fail-fast or cancelled sweep)
};

const char* job_status_name(JobStatus s) noexcept;

struct JobOutcome {
  std::string label;
  JobStatus status = JobStatus::kSkipped;
  unsigned attempts = 0;  ///< attempts actually made (0 when skipped)
  std::string error;      ///< last failure message ("" on success)
};

struct SupervisorOptions {
  /// Shared cancellation source (e.g. flipped by a SIGINT handler); null
  /// disables external cancellation.
  const CancelToken* external = nullptr;

  /// Kill a job whose heartbeat shows no forward progress for this many
  /// wall-clock seconds (0 = watchdog off).
  double watchdog_s = 0.0;

  /// Kill a job attempt running longer than this many wall-clock seconds
  /// regardless of progress (0 = no per-job timeout).
  double job_timeout_s = 0.0;

  /// Extra attempts for a job failing with an ordinary exception.
  unsigned retries = 0;

  /// Base backoff before the first retry; doubles per attempt, capped at
  /// 30 s.
  double retry_backoff_s = 0.25;

  /// Quarantine permanent failures and keep running the rest of the sweep
  /// instead of failing fast.
  bool keep_going = false;
};

struct SupervisedResult {
  std::vector<JobOutcome> outcomes;  ///< by job index
  bool interrupted = false;          ///< external cancellation observed

  std::size_t count(JobStatus s) const noexcept;
  bool all_ok() const noexcept;

  /// Multi-line failure manifest ("" when every job succeeded): a summary
  /// line plus one "[status] label after N attempts: error" entry per
  /// non-OK job, in index order.
  std::string manifest() const;
};

/// Runs @p jobs under supervision. Never throws for job failures — every
/// terminal state is reported in the result (callers decide whether to
/// throw; see throw_on_failures).
SupervisedResult run_supervised(std::vector<Job> jobs, unsigned n_threads,
                                const SupervisorOptions& opts = {});

/// Converts a result with failures into the deterministic aggregate
/// SimError run_jobs has always thrown: single failure keeps the exact
/// "job '<label>' failed: <what>" message; multiple failures are listed in
/// index order (first 5 labelled, then a count). No-op when all jobs
/// succeeded.
void throw_on_failures(const SupervisedResult& result);

}  // namespace sttgpu::sim
