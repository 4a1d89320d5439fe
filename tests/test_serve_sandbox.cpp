// Unit tests of the sweep service's process-isolated simulation attempt
// (serve/sandbox.hpp), each run the way the daemon runs a task: as the body
// of a supervised job under sim::run_supervised. Covers byte-identity of
// sandboxed rows, the worker's reuse and replacement, the shared-page
// heartbeat and the sandbox's own latency, crash/OOM/wedge containment via
// the STTGPU_SANDBOX_FAULT hook, retry/backoff, cancellation, and the
// descriptors a worker holds — all without a server in the loop.
#include "serve/sandbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>
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
  j.arch = "C1";
  j.bench = "bfs";
  j.base.scale = 0.05;
  return j;
}

/// @p job simulated in this process, as the row line a direct run stores.
std::string direct_row(const SandboxJob& job) {
  sim::RunOptions direct = job.base;
  const sim::Metrics m =
      sim::run_one(sim::architecture_from_string(job.arch), job.bench, direct);
  return store::encode_put(sim::config_fingerprint(job.base.faults),
                           store::scale_text(job.base.scale), m);
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

/// One task's supervised outcome, what its attempts did to the worker, and
/// the row line of its successful attempt.
struct TaskRun {
  sim::JobOutcome outcome;
  SandboxCounters children;
  std::string row_line;
};

/// Runs @p job as the daemon runs a task: one supervised job (keep_going)
/// whose every attempt runs in @p sandbox.
TaskRun run_task(Sandbox& sandbox, const SandboxJob& job, sim::SupervisorOptions sup = {},
                 const std::function<void(const std::string&)>& on_event = {}) {
  sup.keep_going = true;
  TaskRun run;
  sim::Job j;
  j.label = job.arch + "/" + job.bench;
  j.fn = [&](const sim::JobControl& ctl) {
    run.row_line = sandbox.run(job, ctl, run.children, on_event);
  };
  std::vector<sim::Job> jobs;
  jobs.push_back(std::move(j));
  run.outcome = sim::run_supervised(std::move(jobs), 1, sup).outcomes.at(0);
  return run;
}

/// The pid of this process's sandbox worker once it has started (its
/// process name is set), or 0.
pid_t worker_pid() {
  const std::string self = std::to_string(::getpid());
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc", ec)) {
    std::ifstream stat(e.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // "pid (comm) state ppid ...": comm may hold spaces, so parse after ')'.
    const std::size_t lp = line.find('('), rp = line.rfind(')');
    if (lp == std::string::npos || rp == std::string::npos) continue;
    std::istringstream fields(line.substr(rp + 1));
    std::string state, ppid;
    fields >> state >> ppid;
    if (ppid == self && line.substr(lp + 1, rp - lp - 1) == "sttgpu-sandbox") {
      return static_cast<pid_t>(std::stol(line));
    }
  }
  return 0;
}

/// The state letter of process @p pid ('Z' once it is a zombie), or 0.
char process_state(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return 0;
  const std::size_t rp = line.rfind(')');
  return rp != std::string::npos && rp + 2 < line.size() ? line[rp + 2] : 0;
}

/// The descriptor numbers open in process @p pid.
std::set<int> open_fds(pid_t pid) {
  std::set<int> fds;
  std::error_code ec;
  const std::string dir = "/proc/" + std::to_string(pid) + "/fd";
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    fds.insert(std::stoi(e.path().filename().string()));
  }
  return fds;
}

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

TEST(ServeSandbox, RowIsByteIdenticalToInProcessRun) {
  const SandboxJob job = small_job();
  Sandbox sandbox;
  const TaskRun run = run_task(sandbox, job);
  ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
  EXPECT_EQ(run.outcome.attempts, 1u);
  EXPECT_EQ(run.children.spawns, 1u);
  EXPECT_EQ(run.children.kills, 0u);
  EXPECT_EQ(run.children.crashes, 0u);
  EXPECT_EQ(run.row_line, direct_row(job));
}

TEST(ServeSandbox, WorkerIsReusedAcrossTasks) {
  // Three tasks, one of them with telemetry on, in one worker: each row is
  // still the one a direct run stores, whatever ran in the worker before.
  SandboxJob nw = small_job(), tel = small_job(), sram = small_job();
  nw.bench = "nw";
  tel.want_telemetry = true;
  tel.interval = 1000;
  sram.arch = "sram";
  Sandbox sandbox;
  unsigned spawns = 0, events = 0;
  for (const SandboxJob& job : {nw, tel, sram}) {
    const TaskRun run =
        run_task(sandbox, job, {}, [&events](const std::string&) { ++events; });
    ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
    EXPECT_EQ(run.row_line, direct_row(job)) << job.arch << "/" << job.bench;
    spawns += run.children.spawns;
  }
  EXPECT_EQ(spawns, 1u);
  EXPECT_GT(events, 0u);
}

TEST(ServeSandbox, CrashedWorkerIsReplaced) {
  Sandbox sandbox;
  SandboxJob crash = small_job();
  crash.bench = "nw";
  TaskRun crashed;
  {
    const FaultEnv env("C1/nw=abort");
    crashed = run_task(sandbox, crash);
  }
  EXPECT_EQ(crashed.outcome.status, sim::JobStatus::kFailed);
  EXPECT_EQ(crashed.children.crashes, 1u);
  const TaskRun run = run_task(sandbox, small_job());
  ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
  EXPECT_EQ(crashed.children.spawns + run.children.spawns, 2u);
  EXPECT_EQ(run.row_line, direct_row(small_job()));
}

TEST(ServeSandbox, IdleWorkerDeathIsNotChargedToTheNextTask) {
  // A worker that dies between tasks (here SIGKILLed by hand) is replaced
  // by the next attempt, which costs that task neither an attempt nor a
  // crash.
  Sandbox sandbox;
  ASSERT_EQ(run_task(sandbox, small_job()).outcome.status, sim::JobStatus::kOk);
  const pid_t pid = worker_pid();
  ASSERT_NE(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  for (int i = 0; i < 1000 && process_state(pid) != 'Z'; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(process_state(pid), 'Z');
  const TaskRun run = run_task(sandbox, small_job());
  ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
  EXPECT_EQ(run.outcome.attempts, 1u);
  EXPECT_EQ(run.children.spawns, 1u);
  EXPECT_EQ(run.children.crashes, 0u);
  EXPECT_EQ(run.row_line, direct_row(small_job()));
}

TEST(ServeSandbox, FaultEnvSetAfterSpawnIsHonoured) {
  // The worker's environment is frozen at its spawn; the fault spec is read
  // by the parent at every attempt and travels with the job.
  Sandbox sandbox;
  ASSERT_EQ(run_task(sandbox, small_job()).outcome.status, sim::JobStatus::kOk);
  const FaultEnv env("C1/bfs=abort");
  const TaskRun run = run_task(sandbox, small_job());
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kFailed);
  EXPECT_EQ(run.children.spawns, 0u);  // the first task's worker took the job
  EXPECT_EQ(run.children.crashes, 1u);
}

TEST(ServeSandbox, ShortRunPaysNoTimerWait) {
  // What a sandboxed task adds to a short run is one job line and one row
  // line over the channel (and, once, the worker's spawn), not a timer
  // period: the parent stops reading at the row line, and the supervisor's
  // monitor (started by the task's token, as in the daemon) wakes when the
  // job returns.
  SandboxJob job = small_job();
  job.bench = "nw";
  CancelToken token;
  sim::SupervisorOptions sup;
  sup.external = &token;
  Sandbox sandbox;
  std::vector<double> overhead_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    sim::RunOptions direct = job.base;
    (void)sim::run_one(sim::architecture_from_string(job.arch), job.bench, direct);
    const auto t1 = std::chrono::steady_clock::now();
    const TaskRun run = run_task(sandbox, job, sup);
    const auto t2 = std::chrono::steady_clock::now();
    ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
    overhead_ms.push_back(elapsed_ms(t1, t2) - elapsed_ms(t0, t1));
  }
  std::sort(overhead_ms.begin(), overhead_ms.end());
  // The median is ~0.3-0.5 ms in plain builds. Under ASan and TSan it is
  // within a few ms either way: the warm, single-threaded worker can beat
  // the in-process run. The one spawn (the slowest sample) costs ~3-5 ms
  // plain and ~10-20 ms under a sanitizer. A timer wait would add ~47 ms on
  // top in every build.
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
  sim::SupervisorOptions sup;
  sup.watchdog_s = tsan_active() ? 5.0 : asan_active() ? 1.5 : 0.8;
  Sandbox sandbox;
  const TaskRun run = run_task(sandbox, job, sup);
  ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
  EXPECT_EQ(run.children.kills, 0u);
  EXPECT_EQ(run.outcome.attempts, 1u);
}

TEST(ServeSandbox, ChildAbortIsContainedAndReportedAsCrash) {
  const FaultEnv env("C1/bfs=abort");
  Sandbox sandbox;
  const TaskRun run = run_task(sandbox, small_job());
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
  Sandbox sandbox(/*mem_limit_bytes=*/256ull << 20);
  const TaskRun run = run_task(sandbox, small_job());
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kFailed) << run.outcome.error;
  EXPECT_EQ(run.children.crashes, 1u);
  EXPECT_NE(run.outcome.error.find("mem_limit"), std::string::npos) << run.outcome.error;
}

TEST(ServeSandbox, WatchdogKillsAWedgedChild) {
  const FaultEnv env("C1/bfs=hang");
  sim::SupervisorOptions sup;
  sup.watchdog_s = 0.3;
  Sandbox sandbox;
  const TaskRun run = run_task(sandbox, small_job(), sup);
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kWatchdog);
  EXPECT_EQ(run.children.kills, 1u);
  EXPECT_EQ(run.outcome.attempts, 1u);  // wedges are never retried
}

TEST(ServeSandbox, JobTimeoutBoundsOneAttempt) {
  const FaultEnv env("C1/bfs=hang");
  sim::SupervisorOptions sup;
  sup.job_timeout_s = 0.3;
  sup.retries = 3;  // must be ignored: a timed-out run would time out again
  Sandbox sandbox;
  const TaskRun run = run_task(sandbox, small_job(), sup);
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kTimeout);
  EXPECT_EQ(run.children.kills, 1u);
  EXPECT_EQ(run.outcome.attempts, 1u);
}

TEST(ServeSandbox, TransientCrashIsRetriedToSuccess) {
  const FaultEnv env("C1/bfs=abort@1");  // crash on attempt 1 only
  sim::SupervisorOptions sup;
  sup.retries = 1;
  sup.retry_backoff_s = 0.01;
  Sandbox sandbox;
  const TaskRun run = run_task(sandbox, small_job(), sup);
  ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
  EXPECT_EQ(run.outcome.attempts, 2u);
  EXPECT_EQ(run.children.attempts, 2u);
  EXPECT_EQ(run.children.spawns, 2u);
  EXPECT_EQ(run.children.crashes, 1u);
  EXPECT_FALSE(run.row_line.empty());
}

TEST(ServeSandbox, PreCancelledTokenSkipsTheFork) {
  CancelToken token;
  token.request(CancelReason::kUser);
  sim::SupervisorOptions sup;
  sup.external = &token;
  Sandbox sandbox;
  const TaskRun run = run_task(sandbox, small_job(), sup);
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kCancelled);
  EXPECT_EQ(run.outcome.attempts, 0u);
  EXPECT_EQ(run.children.spawns, 0u);
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
  Sandbox sandbox;
  const TaskRun run = run_task(sandbox, small_job(), sup);
  killer.join();
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kCancelled);
  EXPECT_EQ(run.children.kills, 1u);
}

TEST(ServeSandbox, ChildHoldsNoInheritedDescriptor) {
  // A descriptor open in the daemon when a worker spawns (the listener, a
  // client connection, another worker's channel) must not stay open in the
  // worker, or its peer sees no EOF for as long as the worker lives. The
  // test holds both ends of its own pipe, without close-on-exec, across the
  // spawn of a wedged worker: the worker must hold stdio, the channel (3)
  // and the heartbeat (4), nothing else, and closing the write end here
  // must give EOF while the worker still runs.
  const FaultEnv env("C1/bfs=hang");
  int q[2];
  ASSERT_EQ(::pipe(q), 0);
  CancelToken token;
  sim::SupervisorOptions sup;
  sup.external = &token;
  Sandbox sandbox;
  TaskRun run;
  std::thread task([&] { run = run_task(sandbox, small_job(), sup); });
  pid_t pid = 0;
  for (int i = 0; i < 1000 && (pid = worker_pid()) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::set<int> fds = pid != 0 ? open_fds(pid) : std::set<int>{};
  ::close(q[1]);
  pollfd pfd{q[0], POLLIN, 0};
  char c = 0;
  const ssize_t n = ::poll(&pfd, 1, /*ms=*/2000) > 0 ? ::read(q[0], &c, 1) : -1;
  token.request(CancelReason::kUser);
  task.join();
  ::close(q[0]);
  ASSERT_NE(pid, 0) << "no sandbox worker appeared";
  EXPECT_EQ(fds, (std::set<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(n, 0) << "the wedged worker still held the pipe's write end";
  EXPECT_EQ(run.outcome.status, sim::JobStatus::kCancelled);
  EXPECT_EQ(run.children.kills, 1u);
}

TEST(ServeSandbox, TelemetryFramesAreForwardedAcrossThePipe) {
  SandboxJob job = small_job();
  job.want_telemetry = true;
  job.interval = 1000;
  std::vector<std::string> events;
  Sandbox sandbox;
  const TaskRun run =
      run_task(sandbox, job, {}, [&events](const std::string& e) { events.push_back(e); });
  ASSERT_EQ(run.outcome.status, sim::JobStatus::kOk) << run.outcome.error;
  ASSERT_FALSE(events.empty());
  for (const std::string& e : events) {
    EXPECT_NE(e.find("\"event\":\"telemetry\""), std::string::npos) << e;
    EXPECT_NE(e.find("\"arch\":\"C1\""), std::string::npos) << e;
  }
}

}  // namespace
}  // namespace sttgpu::serve
