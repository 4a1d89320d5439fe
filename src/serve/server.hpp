// The sweep service daemon: a persistent `sttgpu serve` process that turns
// the Fig. 8 result store into a shared simulation service.
//
// Clients connect over a unix socket and speak the length-framed JSON
// protocol (serve/protocol.hpp). Every submission — a RunOptions-shaped
// config plus an (archs x benchmarks) slice — is deduplicated three ways
// before any cycle is simulated:
//
//   1. against the crash-safe WAL result store, keyed by
//      (config fingerprint, scale, arch, benchmark): rows simulated by any
//      past run, by a direct `sttgpu matrix`, or by another server are pure
//      store hits;
//   2. against the in-flight task table: two concurrent clients submitting
//      overlapping matrices attach to the same task, so each unique config
//      is simulated exactly once;
//   3. within a submission (a degenerate case of 2).
//
// Misses run on a persistent worker pool. Each task is one supervised job
// (sim/supervisor.hpp) whose every attempt simulates in its worker thread's
// reused sandbox process (serve/sandbox.hpp): the supervisor's watchdog,
// job_timeout, retry/backoff and cancellation apply as they do to a matrix
// run, and a run that SIGSEGVs, OOMs against the `mem_limit` RLIMIT_AS, or
// wedges ends only that process. It is reported as a `failed` watch event,
// whose error text says what happened, and counted in `health`; the daemon
// keeps serving everyone else. Rows travel back as the store's own
// put-record lines, so they are byte-identical to direct-matrix runs. The
// CSV export is regenerated with the exact refresh + rows_for + save_cache
// sequence run_matrix uses.
//
// The daemon serves one local user: tasks queue FIFO, and there is no
// admission shedding and no read deadline. A connection that never sends a
// request holds its handler thread until the client closes it or stop()
// shuts it down.
//
// Crash recovery: every acknowledged submission is durably recorded in a
// CRC-framed journal next to the store (serve/journal.hpp) and retired only
// when all of its rows are in the store. After a crash — SIGKILL included —
// the restarted daemon replays unfinished submissions before accepting new
// work: finished rows resolve as warm store hits, the tail re-simulates,
// and the final CSV is byte-identical to an uninterrupted run.
//
// Subscribed `watch` clients receive newline-delimited JSON events:
// scheduling, per-task start/done/failed, live telemetry frames (when the
// submission asked for telemetry), and a terminal "complete". The `health`
// verb reports uptime, queue depth, in-flight tasks, retry and sandbox
// spawn/kill/crash counters, and journal lag.
//
// stop() is the SIGTERM drain: stop accepting, refuse new submissions,
// finish every queued and running task, publish the final CSV export, then
// return — the store is always fsck-clean afterwards.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include <memory>

namespace sttgpu::serve {

struct ServerOptions {
  std::string socket_path = "sttgpu.sock";
  /// CSV export path; the WAL store lives at the derived "<cache>.store".
  std::string cache_path = "fig8_cache.csv";
  /// Worker threads simulating tasks (0 = hardware concurrency).
  unsigned jobs = 1;
  // Supervision applied to every task (sim/supervisor.hpp semantics).
  double watchdog_s = 0.0;
  double job_timeout_s = 0.0;
  unsigned retries = 0;
  /// RLIMIT_AS for each sandbox worker process, in bytes (0 = unlimited).
  std::uint64_t mem_limit_bytes = 0;
  /// Sink for "[serve] ..." progress lines. Null = silent.
  std::function<void(const std::string&)> log;
};

/// Monotonic service counters, snapshot via SweepServer::stats() or the
/// `status` verb with id=0.
struct ServerStats {
  std::uint64_t submissions = 0;
  std::uint64_t tasks_simulated = 0;  ///< simulations actually run to completion
  std::uint64_t tasks_failed = 0;     ///< failed/cancelled/watchdog-killed tasks
  std::uint64_t store_hits = 0;       ///< submission entries served from the store
  std::uint64_t attached = 0;         ///< entries attached to an in-flight task
  std::size_t queued = 0;     ///< tasks waiting for a worker
  std::size_t store_rows = 0; ///< live rows in the result store
  unsigned workers = 0;
  // --- robustness counters (health verb) ---
  std::uint64_t child_spawns = 0;      ///< sandbox worker processes started
  std::uint64_t child_kills = 0;       ///< sandbox SIGKILLs (watchdog/timeout/cancel)
  std::uint64_t child_crashes = 0;     ///< sandbox attempts that crashed or OOMed
  std::uint64_t task_retries = 0;      ///< extra sandbox attempts performed
  std::uint64_t replayed = 0;          ///< submissions replayed from the journal
  std::uint64_t journal_pending = 0;   ///< acknowledged, not yet retired
  std::uint64_t journal_records = 0;   ///< journal appends since open
  std::size_t inflight = 0;            ///< unique configs queued or running
  std::size_t connections = 0;         ///< live connection handler threads
  double uptime_s = 0.0;
};

class SweepServer {
 public:
  /// Binds the unix socket and opens the result store. Throws BindError when
  /// the listener cannot be established — including when another live
  /// server already owns the socket path; a stale socket file left by a
  /// dead server is reclaimed silently.
  explicit SweepServer(ServerOptions opts);

  /// stop()s if still running.
  ~SweepServer();

  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  /// Spawns the accept loop and the worker pool.
  void start();

  /// Graceful drain (the SIGTERM path): stop accepting connections, refuse
  /// new submissions, let every queued and in-flight task finish, publish
  /// the final CSV export, join every thread. Idempotent.
  void stop();

  const std::string& socket_path() const;
  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sttgpu::serve
