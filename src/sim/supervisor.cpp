#include "sim/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hpp"

namespace sttgpu::sim {

void JobControl::checkpoint() const {
  if (cancel == nullptr || !cancel->requested()) return;
  const CancelReason r = cancel->reason();
  throw Cancelled(r, std::string("cancelled (") + cancel_reason_name(r) + ")");
}

const char* job_status_name(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kWatchdog: return "watchdog";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kSkipped: return "skipped";
  }
  return "?";
}

std::size_t SupervisedResult::count(JobStatus s) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [s](const JobOutcome& o) { return o.status == s; }));
}

bool SupervisedResult::all_ok() const noexcept {
  return count(JobStatus::kOk) == outcomes.size();
}

std::string SupervisedResult::manifest() const {
  if (all_ok()) return {};
  const std::size_t bad = outcomes.size() - count(JobStatus::kOk);
  std::string m = "supervisor: " + std::to_string(bad) + " of " +
                  std::to_string(outcomes.size()) + " jobs did not complete (";
  bool first = true;
  for (const JobStatus s : {JobStatus::kFailed, JobStatus::kCancelled, JobStatus::kWatchdog,
                            JobStatus::kTimeout, JobStatus::kSkipped}) {
    const std::size_t n = count(s);
    if (n == 0) continue;
    if (!first) m += ", ";
    m += std::to_string(n) + " " + job_status_name(s);
    first = false;
  }
  m += ")";
  for (const JobOutcome& o : outcomes) {
    if (o.status == JobStatus::kOk || o.status == JobStatus::kSkipped) continue;
    m += "\n  [" + std::string(job_status_name(o.status)) + "] " + o.label + " after " +
         std::to_string(o.attempts) + (o.attempts == 1 ? " attempt" : " attempts");
    if (!o.error.empty()) m += ": " + o.error;
  }
  return m;
}

namespace {

using SteadyClock = std::chrono::steady_clock;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

std::string describe(const std::exception_ptr& eptr) {
  try {
    std::rethrow_exception(eptr);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Retry pacing: base * 2^attempt capped at 30 s, stretched by up to +50% of
/// deterministic per-(label, attempt) jitter so a fleet of flaky jobs never
/// retries in lockstep yet paces identically on every rerun.
double retry_backoff_seconds(double base_s, const std::string& label, unsigned attempt) {
  double delay = base_s * std::pow(2.0, static_cast<double>(attempt));
  delay = std::min(delay, 30.0);
  const std::uint64_t h =
      fnv1a(label) ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(attempt + 1));
  return delay * (1.0 + 0.5 * static_cast<double>(h % 1024) / 1024.0);
}

/// Interruptible sleep: returns early (false) if the external token fires.
bool backoff_sleep(const SupervisorOptions& opts, const std::string& label,
                   unsigned attempt) {
  const std::int64_t deadline =
      now_ms() + static_cast<std::int64_t>(
                     retry_backoff_seconds(opts.retry_backoff_s, label, attempt) * 1000.0);
  while (now_ms() < deadline) {
    if (opts.external != nullptr && opts.external->requested()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

/// Per-job shared state between its worker thread and the monitor.
struct Slot {
  CancelToken token;                          ///< job-private (merged) token
  std::atomic<std::uint64_t> heartbeat{0};    ///< written by the job
  std::atomic<std::uint32_t> critical{0};     ///< open CriticalSection depth
  std::atomic<std::int64_t> attempt_start_ms{-1};  ///< -1: not running
  // Monitor-private bookkeeping (only the monitor thread touches these).
  std::uint64_t last_seen_beat = 0;
  std::int64_t last_progress_ms = 0;
};

}  // namespace

SupervisedResult run_supervised(std::vector<Job> jobs, unsigned n_threads,
                                const SupervisorOptions& opts) {
  SupervisedResult result;
  result.outcomes.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) result.outcomes[i].label = jobs[i].label;
  if (jobs.empty()) return result;

  std::vector<Slot> slots(jobs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};  ///< fail-fast tripped or externally cancelled

  const auto externally_cancelled = [&]() {
    return opts.external != nullptr && opts.external->requested();
  };

  const auto run_job = [&](std::size_t i) {
    const Job& job = jobs[i];
    Slot& slot = slots[i];
    JobOutcome& out = result.outcomes[i];
    for (unsigned attempt = 0;; ++attempt) {
      if (externally_cancelled() || slot.token.reason() == CancelReason::kUser) {
        out.status = JobStatus::kCancelled;
        if (out.error.empty()) out.error = "cancelled before start";
        return;
      }
      out.attempts = attempt + 1;
      slot.heartbeat.store(0, std::memory_order_relaxed);
      slot.attempt_start_ms.store(now_ms(), std::memory_order_release);
      try {
        const JobControl ctl{&slot.token, &slot.heartbeat, &slot.critical};
        job.fn(ctl);
        slot.attempt_start_ms.store(-1, std::memory_order_release);
        out.status = JobStatus::kOk;
        out.error.clear();
        return;
      } catch (const Cancelled& c) {
        slot.attempt_start_ms.store(-1, std::memory_order_release);
        out.error = c.what();
        switch (c.reason()) {
          case CancelReason::kWatchdog: out.status = JobStatus::kWatchdog; break;
          case CancelReason::kTimeout: out.status = JobStatus::kTimeout; break;
          default: out.status = JobStatus::kCancelled; break;
        }
        // A watchdog/timeout kill is deterministic enough not to retry, and
        // it is a real failure for fail-fast purposes; a user cancellation
        // stops the whole sweep anyway (the monitor has already forwarded).
        if (c.reason() != CancelReason::kUser && !opts.keep_going) {
          stop.store(true, std::memory_order_relaxed);
        }
        return;
      } catch (...) {
        slot.attempt_start_ms.store(-1, std::memory_order_release);
        out.status = JobStatus::kFailed;
        out.error = describe(std::current_exception());
        if (attempt >= opts.retries) {
          if (!opts.keep_going) stop.store(true, std::memory_order_relaxed);
          return;
        }
        if (!backoff_sleep(opts, job.label, attempt)) {
          out.status = JobStatus::kCancelled;
          out.error = "cancelled during retry backoff (last failure: " + out.error + ")";
          return;
        }
      }
    }
  };

  const auto worker = [&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      run_job(i);
    }
  };

  // The monitor forwards external cancellation into every job token and
  // enforces the watchdog / per-job timeout budgets. Only spawned when one
  // of those features is on, so plain run_jobs() stays thread-free at
  // n_threads == 1.
  const bool need_monitor =
      opts.external != nullptr || opts.watchdog_s > 0.0 || opts.job_timeout_s > 0.0;
  // The monitor ticks every 10 ms but wakes at once when the jobs finish, so
  // a job shorter than one tick is not held to the tick.
  std::mutex monitor_mu;
  std::condition_variable monitor_wake;
  bool monitor_parked = false;
  bool monitor_quit = false;
  std::thread monitor;
  if (need_monitor) {
    monitor = std::thread([&]() {
      const auto watchdog_ms = static_cast<std::int64_t>(opts.watchdog_s * 1000.0);
      const auto timeout_ms = static_cast<std::int64_t>(opts.job_timeout_s * 1000.0);
      bool forwarded = false;
      std::unique_lock<std::mutex> lk(monitor_mu);
      monitor_parked = true;
      monitor_wake.notify_one();
      while (!monitor_wake.wait_for(lk, std::chrono::milliseconds(10),
                                    [&] { return monitor_quit; })) {
        const std::int64_t t = now_ms();
        if (!forwarded && externally_cancelled()) {
          stop.store(true, std::memory_order_relaxed);
          for (Slot& s : slots) s.token.request(CancelReason::kUser);
          forwarded = true;
        }
        for (Slot& s : slots) {
          const std::int64_t start = s.attempt_start_ms.load(std::memory_order_acquire);
          if (start < 0) continue;  // not running
          const std::uint64_t beat = s.heartbeat.load(std::memory_order_relaxed);
          if (beat != s.last_seen_beat) {
            s.last_seen_beat = beat;
            s.last_progress_ms = t;
          }
          // Progress is anchored at the attempt start until the first beat
          // change, so a fresh attempt gets the full budget.
          const std::int64_t anchor = std::max(s.last_progress_ms, start);
          // An open CriticalSection (durable store append in flight) defers
          // watchdog/timeout kills: re-checked on the next tick, the kill
          // lands right after the section closes instead of tearing it.
          const bool in_critical = s.critical.load(std::memory_order_acquire) != 0;
          if (watchdog_ms > 0 && t - anchor > watchdog_ms && !in_critical) {
            s.token.request(CancelReason::kWatchdog);
          }
          if (timeout_ms > 0 && t - start > timeout_ms && !in_critical) {
            s.token.request(CancelReason::kTimeout);
          }
        }
      }
    });
    // No job of this call starts before its monitor is parked in its wait.
    // A job may fork() (the serve sandbox does), and a child forked while
    // another thread is still starting can inherit a lock that thread held:
    // the sanitizers' allocator locks are not fork-safe, and such children
    // deadlocked. Forks made by other threads are not ordered by this.
    std::unique_lock<std::mutex> lk(monitor_mu);
    monitor_wake.wait(lk, [&] { return monitor_parked; });
  }

  if (n_threads <= 1) {
    worker();  // inline on the calling thread, as run_jobs always has
  } else {
    std::vector<std::thread> pool;
    const std::size_t want = std::min<std::size_t>(n_threads, jobs.size());
    pool.reserve(want);
    for (std::size_t t = 0; t < want; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  {
    const std::lock_guard<std::mutex> lk(monitor_mu);
    monitor_quit = true;
  }
  monitor_wake.notify_one();
  if (monitor.joinable()) monitor.join();

  result.interrupted = externally_cancelled();
  return result;
}

void throw_on_failures(const SupervisedResult& result) {
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const JobStatus s = result.outcomes[i].status;
    if (s != JobStatus::kOk && s != JobStatus::kSkipped) failed.push_back(i);
  }
  if (failed.empty()) return;
  if (failed.size() == 1) {
    const JobOutcome& o = result.outcomes[failed[0]];
    throw SimError("job '" + o.label + "' failed: " + o.error);
  }
  constexpr std::size_t kMaxDetailed = 5;
  std::string msg = std::to_string(failed.size()) + " jobs failed:";
  for (std::size_t k = 0; k < failed.size() && k < kMaxDetailed; ++k) {
    const JobOutcome& o = result.outcomes[failed[k]];
    msg += "\n  job '" + o.label + "': " + o.error;
  }
  if (failed.size() > kMaxDetailed) {
    msg += "\n  ... and " + std::to_string(failed.size() - kMaxDetailed) + " more";
  }
  throw SimError(msg);
}

}  // namespace sttgpu::sim
