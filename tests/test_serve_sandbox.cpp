// Unit tests of the sweep service's process-isolated simulation attempt
// (serve/sandbox.hpp), each run the way the daemon runs a task: as the body
// of a supervised job under sim::run_supervised. Covers byte-identity of
// sandboxed rows, the shared-page heartbeat and the sandbox's own latency,
// crash/OOM/wedge containment via the STTGPU_SANDBOX_FAULT hook, retry/
// backoff, cancellation, and the descriptors a child inherits — all without
// a server in the loop.
#include "serve/sandbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "common/cancel.hpp"
#include "sim/runner.hpp"
#include "sim/supervisor.hpp"
#include "store/record.hpp"

namespace sttgpu::serve {
namespace {

/// Scoped STTGPU_SANDBOX_FAULT so a failing test can't poison its neighbors.
struct FaultEnv {
  explicit FaultEnv(const char* spec) { ::setenv("STTGPU_SANDBOX_FAULT", spec, 1); }
  ~FaultEnv() { ::unsetenv("STTGPU_SANDBOX_FAULT"); }
};

SandboxJob small_job() {
  SandboxJob j;
  j.arch_id = sim::architecture_from_string("C1");
  j.arch = "C1";
  j.bench = "bfs";
  j.base.scale = 0.05;
  j.fp = sim::config_fingerprint(j.base.faults);
  j.scale17 = store::scale_text(j.base.scale);
  return j;
}

bool asan_active() {
#if defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool tsan_active() {
#if defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// One task's supervised outcome, the counters of its children, and the
/// row line of its successful attempt.
struct TaskRun {
  sim::JobOutcome outcome;
  SandboxCounters children;
  std::string row_line;
};

/// Runs @p job as the daemon runs a task: one supervised job (keep_going)
/// whose every attempt is run_sandboxed.
TaskRun run_task(const SandboxJob& job, sim::SupervisorOptions sup = {},
                 const SandboxOptions& opts = {},
                 const std::function<void(const std::string&)>& on_event = {}) {
  sup.keep_going = true;
  TaskRun run;
  sim::Job j;
  j.label = job.arch + "/" + job.bench;
  j.fn = [&](const sim::JobControl& ctl) {
    run.row_line = run_sandboxed(job, opts, ctl, run.children, on_event);
  };
  std::vector<sim::Job> jobs;
  jobs.push_back(std::move(j));
  run.outcome = sim::run_supervised(std::move(jobs), 1, sup).outcomes.at(0);
  return run;
}

/// True while some process has this one as its parent.
bool has_child_process() {
  const std::string self = std::to_string(::getpid());
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc", ec)) {
    std::ifstream stat(e.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // "pid (comm) state ppid ...": comm may hold spaces, so parse after ')'.
    const std::size_t rp = line.rfind(')');
    if (rp == std::string::npos) continue;
    std::istringstream fields(line.substr(rp + 1));
    std::string state, ppid;
    fields >> state >> ppid;
    if (ppid == self) return true;
  }
  return false;
}

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

TEST(ServeSandbox, RowIsByteIdenticalToInProcessRun) {
  const SandboxJob job = small_job();
  const TaskRun run = run_task(job);
  ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
  EXPECT_EQ(run.outcome.attempts, 1u);
  EXPECT_EQ(run.children.forks, 1u);
  EXPECT_EQ(run.children.kills, 0u);
  EXPECT_EQ(run.children.crashes, 0u);

  sim::RunOptions direct = job.base;
  const sim::Metrics m = sim::run_one(job.arch_id, job.bench, direct);
  EXPECT_EQ(run.row_line, store::encode_put(job.fp, job.scale17, m));
}

TEST(ServeSandbox, ShortRunPaysNoTimerWait) {
  // What a sandboxed task adds to a short run is fork, pipe and exit, not a
  // timer period: the child exits as soon as its row is written, the parent
  // stops reading at the row line, and the supervisor's monitor (started
  // by the task's token, as in the daemon) wakes when the job returns.
  SandboxJob job = small_job();
  job.bench = "nw";
  CancelToken token;
  sim::SupervisorOptions sup;
  sup.external = &token;
  std::vector<double> overhead_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    sim::RunOptions direct = job.base;
    (void)sim::run_one(job.arch_id, job.bench, direct);
    const auto t1 = std::chrono::steady_clock::now();
    const TaskRun run = run_task(job, sup);
    const auto t2 = std::chrono::steady_clock::now();
    ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
    overhead_ms.push_back(elapsed_ms(t1, t2) - elapsed_ms(t0, t1));
  }
  std::sort(overhead_ms.begin(), overhead_ms.end());
  // ~1.4 ms in plain builds and ~5 ms under ASan. Under TSan, fork and the
  // child's copy-on-write faults also copy shadow memory (~20 ms). A timer
  // wait would add ~47 ms on top in every build.
  const double bound_ms = tsan_active() ? 40.0 : 25.0;
  EXPECT_LT(overhead_ms[2], bound_ms) << "median sandbox overhead in ms";
}

TEST(ServeSandbox, HealthyChildOutlivesAWatchdogShorterThanItsRun) {
  // The run lasts well over one watchdog period, so it survives only if the
  // heartbeat the child's Gpu publishes every 16384 cycles reaches the
  // supervisor while the run is in progress. Each watchdog spans many beat
  // gaps and is still well under the run:
  //   plain: scale 1.0, ~55 ms gaps in a ~2.1 s run. A 0.4 s watchdog over
  //          a 0.7 s run at scale 0.5 failed about once in 20 parallel
  //          full-suite runs, on host stalls and CPU oversubscription;
  //   ASan:  scale 0.5, ~0.27 s gaps in a ~2.9 s run;
  //   TSan:  scale 0.5, ~1.5 s gaps in a ~12-15 s run.
  const bool sanitized = asan_active() || tsan_active();
  SandboxJob job = small_job();
  job.base.scale = sanitized ? 0.5 : 1.0;
  job.scale17 = store::scale_text(job.base.scale);
  sim::SupervisorOptions sup;
  sup.watchdog_s = tsan_active() ? 5.0 : asan_active() ? 1.5 : 0.8;
  const TaskRun run = run_task(job, sup);
  ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
  EXPECT_EQ(run.children.kills, 0u);
  EXPECT_EQ(run.outcome.attempts, 1u);
}

TEST(ServeSandbox, ChildAbortIsContainedAndReportedAsCrash) {
  const FaultEnv env("C1/bfs=abort");
  const TaskRun run = run_task(small_job());
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kFailed);
  EXPECT_EQ(run.outcome.attempts, 1u);
  EXPECT_EQ(run.children.crashes, 1u);
  EXPECT_NE(run.outcome.error.find("signal"), std::string::npos) << run.outcome.error;
}

TEST(ServeSandbox, MemLimitTurnsRunawayAllocationIntoOom) {
  if (asan_active() || tsan_active()) {
    GTEST_SKIP() << "RLIMIT_AS is incompatible with the sanitizers' shadow maps";
  }
  const FaultEnv env("C1/bfs=oom");
  SandboxOptions opts;
  opts.mem_limit_bytes = 256ull << 20;
  const TaskRun run = run_task(small_job(), {}, opts);
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kFailed) << run.outcome.error;
  EXPECT_EQ(run.children.crashes, 1u);
  EXPECT_NE(run.outcome.error.find("mem_limit"), std::string::npos) << run.outcome.error;
}

TEST(ServeSandbox, WatchdogKillsAWedgedChild) {
  const FaultEnv env("C1/bfs=hang");
  sim::SupervisorOptions sup;
  sup.watchdog_s = 0.3;
  const TaskRun run = run_task(small_job(), sup);
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kWatchdog);
  EXPECT_EQ(run.children.kills, 1u);
  EXPECT_EQ(run.outcome.attempts, 1u);  // wedges are never retried
}

TEST(ServeSandbox, JobTimeoutBoundsOneAttempt) {
  const FaultEnv env("C1/bfs=hang");
  sim::SupervisorOptions sup;
  sup.job_timeout_s = 0.3;
  sup.retries = 3;  // must be ignored: a timed-out run would time out again
  const TaskRun run = run_task(small_job(), sup);
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kTimeout);
  EXPECT_EQ(run.children.kills, 1u);
  EXPECT_EQ(run.outcome.attempts, 1u);
}

TEST(ServeSandbox, TransientCrashIsRetriedToSuccess) {
  const FaultEnv env("C1/bfs=abort@1");  // crash on attempt 1 only
  sim::SupervisorOptions sup;
  sup.retries = 1;
  sup.retry_backoff_s = 0.01;
  const TaskRun run = run_task(small_job(), sup);
  ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
  EXPECT_EQ(run.outcome.attempts, 2u);
  EXPECT_EQ(run.children.forks, 2u);
  EXPECT_EQ(run.children.crashes, 1u);
  EXPECT_FALSE(run.row_line.empty());
}

TEST(ServeSandbox, PreCancelledTokenSkipsTheFork) {
  CancelToken token;
  token.request(CancelReason::kUser);
  sim::SupervisorOptions sup;
  sup.external = &token;
  const TaskRun run = run_task(small_job(), sup);
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kCancelled);
  EXPECT_EQ(run.outcome.attempts, 0u);
  EXPECT_EQ(run.children.forks, 0u);
}

TEST(ServeSandbox, LiveCancellationKillsTheChild) {
  const FaultEnv env("C1/bfs=hang");
  CancelToken token;
  sim::SupervisorOptions sup;
  sup.external = &token;
  std::thread killer([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    token.request(CancelReason::kUser);
  });
  const TaskRun run = run_task(small_job(), sup);
  killer.join();
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kCancelled);
  EXPECT_EQ(run.children.kills, 1u);
}

TEST(ServeSandbox, ChildHoldsNoInheritedDescriptor) {
  // A descriptor open in the daemon when a child forks (the listener, a
  // client connection, another worker's attempt pipe) must not stay open in
  // the child, or its peer sees no EOF for as long as the child lives. The
  // test holds the write end of its own pipe across the fork of a wedged
  // child, closes it, and expects EOF while the child still runs.
  const FaultEnv env("C1/bfs=hang");
  int q[2];
  ASSERT_EQ(::pipe(q), 0);
  CancelToken token;
  sim::SupervisorOptions sup;
  sup.external = &token;
  TaskRun run;
  std::thread task([&] { run = run_task(small_job(), sup); });
  bool forked = false;
  for (int i = 0; i < 1000 && !(forked = has_child_process()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(q[1]);
  pollfd pfd{q[0], POLLIN, 0};
  char c = 0;
  const ssize_t n = ::poll(&pfd, 1, /*ms=*/2000) > 0 ? ::read(q[0], &c, 1) : -1;
  token.request(CancelReason::kUser);
  task.join();
  ::close(q[0]);
  EXPECT_TRUE(forked);
  EXPECT_EQ(n, 0) << "the wedged child still held the pipe's write end";
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kCancelled);
  EXPECT_EQ(run.children.kills, 1u);
}

TEST(ServeSandbox, TelemetryFramesAreForwardedAcrossThePipe) {
  SandboxJob job = small_job();
  job.want_telemetry = true;
  job.interval = 1000;
  std::vector<std::string> events;
  const TaskRun run = run_task(job, {}, {},
                               [&events](const std::string& e) { events.push_back(e); });
  ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
  ASSERT_FALSE(events.empty());
  for (const std::string& e : events) {
    EXPECT_NE(e.find("\"event\":\"telemetry\""), std::string::npos) << e;
    EXPECT_NE(e.find("\"arch\":\"C1\""), std::string::npos) << e;
  }
}

}  // namespace
}  // namespace sttgpu::serve
