// Unit tests of the sweep service's process-isolated simulation runner
// (serve/sandbox.hpp): byte-identity of sandboxed rows, the shared-page
// heartbeat and the sandbox's own latency, crash/OOM/wedge containment via
// the STTGPU_SANDBOX_FAULT hook, retry/backoff, and cancellation — all
// without a server in the loop.
#include "serve/sandbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "sim/runner.hpp"
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

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

TEST(ServeSandbox, RowIsByteIdenticalToInProcessRun) {
  const SandboxJob job = small_job();
  const SandboxResult res = run_sandboxed(job, SandboxOptions{});
  ASSERT_EQ(res.status, SandboxStatus::kOk) << res.error;
  EXPECT_EQ(res.attempts, 1u);
  EXPECT_EQ(res.kills, 0u);
  EXPECT_EQ(res.crashes, 0u);

  sim::RunOptions direct = job.base;
  const sim::Metrics m = sim::run_one(job.arch_id, job.bench, direct);
  EXPECT_EQ(res.row_line, store::encode_put(job.fp, job.scale17, sim::to_store_row(m)));
}

TEST(ServeSandbox, ShortRunPaysNoTimerWait) {
  // What a sandbox adds to a short run is fork, pipe and exit, not a timer
  // period: the child exits as soon as its row is written, and the parent
  // wakes on the pipe's end-of-file.
  SandboxJob job = small_job();
  job.bench = "nw";
  std::vector<double> overhead_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    sim::RunOptions direct = job.base;
    (void)sim::run_one(job.arch_id, job.bench, direct);
    const auto t1 = std::chrono::steady_clock::now();
    const SandboxResult res = run_sandboxed(job, SandboxOptions{});
    const auto t2 = std::chrono::steady_clock::now();
    ASSERT_EQ(res.status, SandboxStatus::kOk) << res.error;
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
  // parent while the run is in progress. Each watchdog spans many beat gaps
  // and is still well under the run:
  //   plain: scale 1.0, ~55 ms gaps in a ~2.1 s run. A 0.4 s watchdog over
  //          a 0.7 s run at scale 0.5 failed about once in 20 parallel
  //          full-suite runs, on host stalls and CPU oversubscription;
  //   ASan:  scale 0.5, ~0.27 s gaps in a ~2.9 s run;
  //   TSan:  scale 0.5, ~1.5 s gaps in a ~12-15 s run.
  const bool sanitized = asan_active() || tsan_active();
  SandboxJob job = small_job();
  job.base.scale = sanitized ? 0.5 : 1.0;
  job.scale17 = store::scale_text(job.base.scale);
  SandboxOptions opts;
  opts.watchdog_s = tsan_active() ? 5.0 : asan_active() ? 1.5 : 0.8;
  const SandboxResult res = run_sandboxed(job, opts);
  ASSERT_EQ(res.status, SandboxStatus::kOk) << res.error;
  EXPECT_EQ(res.kills, 0u);
  EXPECT_EQ(res.attempts, 1u);
}

TEST(ServeSandbox, ChildAbortIsContainedAndReportedAsCrash) {
  const FaultEnv env("C1/bfs=abort");
  const SandboxResult res = run_sandboxed(small_job(), SandboxOptions{});
  EXPECT_EQ(res.status, SandboxStatus::kCrashed);
  EXPECT_EQ(res.attempts, 1u);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_NE(res.error.find("signal"), std::string::npos) << res.error;
}

TEST(ServeSandbox, MemLimitTurnsRunawayAllocationIntoOom) {
  if (asan_active() || tsan_active()) {
    GTEST_SKIP() << "RLIMIT_AS is incompatible with the sanitizers' shadow maps";
  }
  const FaultEnv env("C1/bfs=oom");
  SandboxOptions opts;
  opts.mem_limit_bytes = 256ull << 20;
  const SandboxResult res = run_sandboxed(small_job(), opts);
  EXPECT_EQ(res.status, SandboxStatus::kOom) << res.error;
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_NE(res.error.find("mem_limit"), std::string::npos) << res.error;
}

TEST(ServeSandbox, WatchdogKillsAWedgedChild) {
  const FaultEnv env("C1/bfs=hang");
  SandboxOptions opts;
  opts.watchdog_s = 0.3;
  const SandboxResult res = run_sandboxed(small_job(), opts);
  EXPECT_EQ(res.status, SandboxStatus::kWatchdog);
  EXPECT_EQ(res.kills, 1u);
  EXPECT_EQ(res.attempts, 1u);  // wedges are never retried
}

TEST(ServeSandbox, JobTimeoutBoundsOneAttempt) {
  const FaultEnv env("C1/bfs=hang");
  SandboxOptions opts;
  opts.job_timeout_s = 0.3;
  opts.retries = 3;  // must be ignored: a timed-out run would time out again
  const SandboxResult res = run_sandboxed(small_job(), opts);
  EXPECT_EQ(res.status, SandboxStatus::kTimeout);
  EXPECT_EQ(res.kills, 1u);
  EXPECT_EQ(res.attempts, 1u);
}

TEST(ServeSandbox, TransientCrashIsRetriedToSuccess) {
  const FaultEnv env("C1/bfs=abort@1");  // crash on attempt 1 only
  SandboxOptions opts;
  opts.retries = 1;
  opts.retry_backoff_s = 0.01;
  const SandboxResult res = run_sandboxed(small_job(), opts);
  ASSERT_EQ(res.status, SandboxStatus::kOk) << res.error;
  EXPECT_EQ(res.attempts, 2u);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_FALSE(res.row_line.empty());
}

TEST(ServeSandbox, PreCancelledTokenSkipsTheFork) {
  CancelToken token;
  token.request(CancelReason::kUser);
  SandboxOptions opts;
  opts.cancel = &token;
  const SandboxResult res = run_sandboxed(small_job(), opts);
  EXPECT_EQ(res.status, SandboxStatus::kCancelled);
  EXPECT_EQ(res.attempts, 0u);
}

TEST(ServeSandbox, LiveCancellationKillsTheChild) {
  const FaultEnv env("C1/bfs=hang");
  CancelToken token;
  SandboxOptions opts;
  opts.cancel = &token;
  std::thread killer([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    token.request(CancelReason::kUser);
  });
  const SandboxResult res = run_sandboxed(small_job(), opts);
  killer.join();
  EXPECT_EQ(res.status, SandboxStatus::kCancelled);
  EXPECT_EQ(res.kills, 1u);
}

TEST(ServeSandbox, TelemetryFramesAreForwardedAcrossThePipe) {
  SandboxJob job = small_job();
  job.want_telemetry = true;
  job.interval = 1000;
  std::vector<std::string> events;
  const SandboxResult res = run_sandboxed(
      job, SandboxOptions{}, [&events](const std::string& e) { events.push_back(e); });
  ASSERT_EQ(res.status, SandboxStatus::kOk) << res.error;
  ASSERT_FALSE(events.empty());
  for (const std::string& e : events) {
    EXPECT_NE(e.find("\"event\":\"telemetry\""), std::string::npos) << e;
    EXPECT_NE(e.find("\"arch\":\"C1\""), std::string::npos) << e;
  }
}

}  // namespace
}  // namespace sttgpu::serve
