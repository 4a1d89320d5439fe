#include "sim/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "sim/runner.hpp"
#include "store/result_store.hpp"

namespace sttgpu::sim {
namespace {

// Removes a test cache CSV together with its store sidecars; a stale store
// from a previous run would satisfy the whole matrix and defeat the
// interrupt-and-resume scenario below.
void remove_cache_files(const std::string& csv_path) {
  std::remove(csv_path.c_str());
  const std::string store = store::ResultStore::derive_path(csv_path);
  std::remove(store.c_str());
  std::remove((store + ".lock").c_str());
  std::remove(store::ResultStore::quarantine_path_for(store).c_str());
}

// Every wall-clock budget in this file is chosen so the slow side (a
// livelocked loop) trips it within a few monitor polls while the fast side
// (instant jobs) finishes orders of magnitude earlier — no flaky margins.
constexpr double kShortBudget = 0.15;   // seconds: watchdog/timeout budgets
constexpr double kTinyBackoff = 0.001;  // seconds: retry backoff base

Job supervised_job(std::string label, std::function<void(const JobControl&)> fn) {
  return Job{std::move(label), std::move(fn)};
}

/// Spins until the job's token is requested, checkpointing every iteration
/// but never advancing the heartbeat: the watchdog's livelock case.
void livelock(const JobControl& ctl) {
  for (;;) {
    ctl.checkpoint();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(CancelToken, FirstRequestWins) {
  CancelToken t;
  EXPECT_FALSE(t.requested());
  EXPECT_EQ(t.reason(), CancelReason::kNone);
  t.request(CancelReason::kWatchdog);
  t.request(CancelReason::kUser);  // late, must lose
  EXPECT_TRUE(t.requested());
  EXPECT_EQ(t.reason(), CancelReason::kWatchdog);
}

TEST(CancelToken, CheckpointThrowsWithReason) {
  CancelToken t;
  const JobControl quiet{&t, nullptr};
  quiet.checkpoint();  // not requested: no-op
  t.request(CancelReason::kTimeout);
  try {
    quiet.checkpoint();
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.reason(), CancelReason::kTimeout);
    EXPECT_NE(std::string(c.what()).find("timeout"), std::string::npos) << c.what();
  }
}

TEST(CancelToken, NullHandlesAreNoOps) {
  const JobControl none{};
  EXPECT_FALSE(none.cancelled());
  none.beat(42);       // no heartbeat attached
  none.checkpoint();   // no token attached
}

TEST(Supervisor, AllJobsOkReportsOkOutcomes) {
  std::atomic<int> ran{0};
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(supervised_job("ok" + std::to_string(i),
                                  [&ran](const JobControl&) { ++ran; }));
  }
  const SupervisedResult r = run_supervised(std::move(jobs), 4);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_TRUE(r.all_ok());
  EXPECT_FALSE(r.interrupted);
  EXPECT_EQ(r.manifest(), "");
  for (const JobOutcome& o : r.outcomes) {
    EXPECT_EQ(o.status, JobStatus::kOk);
    EXPECT_EQ(o.attempts, 1u);
    EXPECT_EQ(o.error, "");
  }
}

TEST(Supervisor, RetrySucceedsAfterTransientFailures) {
  std::atomic<int> calls{0};
  std::vector<Job> jobs;
  jobs.push_back(supervised_job("flaky", [&calls](const JobControl&) {
    if (++calls < 3) throw SimError("transient");
  }));
  SupervisorOptions opts;
  opts.retries = 5;
  opts.retry_backoff_s = kTinyBackoff;
  const SupervisedResult r = run_supervised(std::move(jobs), 1, opts);
  EXPECT_EQ(calls.load(), 3);
  ASSERT_EQ(r.outcomes.size(), 1u);
  EXPECT_EQ(r.outcomes[0].status, JobStatus::kOk);
  EXPECT_EQ(r.outcomes[0].attempts, 3u);
  EXPECT_EQ(r.outcomes[0].error, "");
}

TEST(Supervisor, RetryExhaustionFailsFastAndSkipsRest) {
  std::atomic<int> calls{0};
  bool later_ran = false;
  std::vector<Job> jobs;
  jobs.push_back(supervised_job(
      "doomed", [&calls](const JobControl&) { ++calls; throw SimError("permanent"); }));
  jobs.push_back(supervised_job("later", [&later_ran](const JobControl&) {
    later_ran = true;
  }));
  SupervisorOptions opts;
  opts.retries = 2;
  opts.retry_backoff_s = kTinyBackoff;
  const SupervisedResult r = run_supervised(std::move(jobs), 1, opts);
  EXPECT_EQ(calls.load(), 3);  // 1 attempt + 2 retries
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(r.outcomes[0].status, JobStatus::kFailed);
  EXPECT_EQ(r.outcomes[0].attempts, 3u);
  EXPECT_NE(r.outcomes[0].error.find("permanent"), std::string::npos);
  EXPECT_EQ(r.outcomes[1].status, JobStatus::kSkipped);
  EXPECT_EQ(r.outcomes[1].attempts, 0u);
  EXPECT_THROW(throw_on_failures(r), SimError);
}

TEST(Supervisor, KeepGoingQuarantinesAndBuildsManifest) {
  std::atomic<int> ran{0};
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    const bool fails = i % 2 == 1;
    jobs.push_back(supervised_job("q" + std::to_string(i),
                                  [&ran, fails](const JobControl&) {
                                    ++ran;
                                    if (fails) throw SimError("odd job broke");
                                  }));
  }
  SupervisorOptions opts;
  opts.keep_going = true;
  const SupervisedResult r = run_supervised(std::move(jobs), 2, opts);
  EXPECT_EQ(ran.load(), 6);  // nothing skipped
  EXPECT_EQ(r.count(JobStatus::kOk), 3u);
  EXPECT_EQ(r.count(JobStatus::kFailed), 3u);
  const std::string m = r.manifest();
  EXPECT_NE(m.find("3 of 6 jobs did not complete"), std::string::npos) << m;
  EXPECT_NE(m.find("3 failed"), std::string::npos) << m;
  EXPECT_NE(m.find("[failed] q1"), std::string::npos) << m;
  EXPECT_NE(m.find("odd job broke"), std::string::npos) << m;
}

TEST(Supervisor, PreCancelledTokenRunsNothing) {
  CancelToken cancel;
  cancel.request(CancelReason::kUser);
  std::atomic<int> ran{0};
  std::vector<Job> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(supervised_job("j" + std::to_string(i),
                                  [&ran](const JobControl&) { ++ran; }));
  }
  SupervisorOptions opts;
  opts.external = &cancel;
  const SupervisedResult r = run_supervised(std::move(jobs), 2, opts);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_TRUE(r.interrupted);
  for (const JobOutcome& o : r.outcomes) {
    EXPECT_TRUE(o.status == JobStatus::kSkipped || o.status == JobStatus::kCancelled);
  }
}

TEST(Supervisor, ExternalCancelStopsInFlightJobs) {
  CancelToken cancel;
  std::atomic<bool> entered{false};
  std::vector<Job> jobs;
  jobs.push_back(supervised_job("spinner", [&entered](const JobControl& ctl) {
    entered = true;
    livelock(ctl);
  }));
  SupervisorOptions opts;
  opts.external = &cancel;
  std::thread killer([&cancel, &entered]() {
    while (!entered.load()) std::this_thread::yield();
    cancel.request(CancelReason::kUser);
  });
  const SupervisedResult r = run_supervised(std::move(jobs), 2, opts);
  killer.join();
  EXPECT_TRUE(r.interrupted);
  ASSERT_EQ(r.outcomes.size(), 1u);
  EXPECT_EQ(r.outcomes[0].status, JobStatus::kCancelled);
}

TEST(Supervisor, WatchdogKillsStalledJobHealthyJobSurvives) {
  // "stall" checkpoints but never advances its heartbeat; "healthy" beats a
  // fresh value on every iteration for well past the watchdog budget. Only
  // the stalled job may be killed.
  std::vector<Job> jobs;
  jobs.push_back(supervised_job("stall", livelock));
  jobs.push_back(supervised_job("healthy", [](const JobControl& ctl) {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t beat = 0;
    while (std::chrono::steady_clock::now() - start <
           std::chrono::duration<double>(3 * kShortBudget)) {
      ctl.checkpoint();
      ctl.beat(++beat);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  SupervisorOptions opts;
  opts.watchdog_s = kShortBudget;
  opts.keep_going = true;  // the kill must not cancel the healthy job
  const SupervisedResult r = run_supervised(std::move(jobs), 2, opts);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_EQ(r.outcomes[0].status, JobStatus::kWatchdog);
  EXPECT_NE(r.outcomes[0].error.find("watchdog"), std::string::npos)
      << r.outcomes[0].error;
  EXPECT_EQ(r.outcomes[1].status, JobStatus::kOk);
  EXPECT_FALSE(r.interrupted);
}

TEST(Supervisor, JobTimeoutFiresDespiteProgress) {
  // The job advances its heartbeat constantly, so the watchdog never fires —
  // only the absolute per-attempt budget can kill it.
  std::vector<Job> jobs;
  jobs.push_back(supervised_job("busy", [](const JobControl& ctl) {
    std::uint64_t beat = 0;
    for (;;) {
      ctl.checkpoint();
      ctl.beat(++beat);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  SupervisorOptions opts;
  opts.job_timeout_s = kShortBudget;
  opts.watchdog_s = 60.0;
  const SupervisedResult r = run_supervised(std::move(jobs), 2, opts);
  ASSERT_EQ(r.outcomes.size(), 1u);
  EXPECT_EQ(r.outcomes[0].status, JobStatus::kTimeout);
  EXPECT_EQ(r.outcomes[0].attempts, 1u);  // supervision kills are not retried
}

TEST(Supervisor, WatchdogKillIsNotRetried) {
  std::atomic<int> calls{0};
  std::vector<Job> jobs;
  jobs.push_back(supervised_job("relapse", [&calls](const JobControl& ctl) {
    ++calls;
    livelock(ctl);
  }));
  SupervisorOptions opts;
  opts.watchdog_s = kShortBudget;
  opts.retries = 5;
  opts.retry_backoff_s = kTinyBackoff;
  const SupervisedResult r = run_supervised(std::move(jobs), 2, opts);
  EXPECT_EQ(calls.load(), 1);  // a livelocked job would livelock again
  EXPECT_EQ(r.outcomes[0].status, JobStatus::kWatchdog);
}

TEST(Supervisor, MonitorWakesWhenAShortJobFinishes) {
  // An external token starts the monitor thread beside the job. The run must
  // end when the job does, not when the monitor's next 10 ms tick comes due:
  // a 3 ms job returns in ~3 ms. Best of five, so one descheduled run cannot
  // fail the test.
  CancelToken cancel;
  double best_ms = 1e9;
  for (int i = 0; i < 5; ++i) {
    std::vector<Job> jobs;
    jobs.push_back(supervised_job("short", [](const JobControl&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }));
    SupervisorOptions opts;
    opts.external = &cancel;
    const auto t0 = std::chrono::steady_clock::now();
    const SupervisedResult r = run_supervised(std::move(jobs), 1, opts);
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - t0;
    ASSERT_TRUE(r.all_ok());
    best_ms = std::min(best_ms, took.count());
  }
  EXPECT_LT(best_ms, 7.0) << "a monitor sleeping out its tick takes >= 10 ms";
}

TEST(Supervisor, BackoffIsDeterministicPerLabelAndAttempt) {
  // Two identical runs of the same flaky job must make the same attempts —
  // the backoff depends on the attempt number only, not on a random source.
  const auto run_once = [] {
    std::atomic<int> calls{0};
    std::vector<Job> jobs;
    jobs.push_back(supervised_job("det", [&calls](const JobControl&) {
      if (++calls < 4) throw SimError("flaky " + std::to_string(calls));
    }));
    SupervisorOptions opts;
    opts.retries = 4;
    opts.retry_backoff_s = kTinyBackoff;
    return run_supervised(std::move(jobs), 1, opts);
  };
  const SupervisedResult a = run_once();
  const SupervisedResult b = run_once();
  EXPECT_EQ(a.outcomes[0].attempts, b.outcomes[0].attempts);
  EXPECT_EQ(a.outcomes[0].attempts, 4u);
  EXPECT_EQ(a.outcomes[0].status, JobStatus::kOk);
}

// --- integration with the Gpu cycle loop and the matrix runner ---

constexpr double kTinyScale = 0.04;

TEST(SupervisedRun, PreCancelledRunThrowsCancelled) {
  CancelToken cancel;
  cancel.request(CancelReason::kUser);
  RunOptions opts;
  opts.scale = kTinyScale;
  opts.cancel = &cancel;
  try {
    run_one(Architecture::kC1, "bfs", opts);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.reason(), CancelReason::kUser);
    EXPECT_NE(std::string(c.what()).find("cancelled at cycle"), std::string::npos)
        << c.what();
  }
}

TEST(SupervisedRun, WatchdogReasonCarriesDiagnosticStateDump) {
  CancelToken cancel;
  cancel.request(CancelReason::kWatchdog);
  RunOptions opts;
  opts.scale = kTinyScale;
  opts.cancel = &cancel;
  try {
    run_one(Architecture::kC1, "bfs", opts);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    const std::string what = c.what();
    EXPECT_EQ(c.reason(), CancelReason::kWatchdog);
    EXPECT_NE(what.find("watchdog abort"), std::string::npos) << what;
    EXPECT_NE(what.find("diagnostic state at cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("l2b0:"), std::string::npos) << what;
  }
}

TEST(SupervisedRun, HeartbeatAdvancesDuringARun) {
  std::atomic<std::uint64_t> heartbeat{0};
  RunOptions opts;
  opts.scale = kTinyScale;
  opts.heartbeat = &heartbeat;
  const Metrics m = run_one(Architecture::kC1, "bfs", opts);
  EXPECT_GT(heartbeat.load(), 0u);
  EXPECT_LE(heartbeat.load(), m.cycles);
}

TEST(SupervisedRun, SupervisionDoesNotChangeResults) {
  CancelToken cancel;  // never requested
  std::atomic<std::uint64_t> heartbeat{0};
  RunOptions plain;
  plain.scale = kTinyScale;
  RunOptions supervised = plain;
  supervised.cancel = &cancel;
  supervised.heartbeat = &heartbeat;
  const Metrics a = run_one(Architecture::kC2, "kmeans", plain);
  const Metrics b = run_one(Architecture::kC2, "kmeans", supervised);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_DOUBLE_EQ(a.dynamic_w, b.dynamic_w);
  EXPECT_DOUBLE_EQ(a.leakage_w, b.leakage_w);
}

TEST(SupervisedRun, MatrixInterruptReportsResumableState) {
  const std::string path = "test_supervisor_matrix_cache.csv";
  remove_cache_files(path);
  CancelToken cancel;
  cancel.request(CancelReason::kUser);
  RunOptions opts;
  opts.scale = kTinyScale;
  opts.cache_path = path;
  opts.jobs = 1;
  opts.cancel = &cancel;
  SupervisedResult report;
  opts.report = &report;
  try {
    run_matrix({Architecture::kSramBaseline}, {"bfs", "hotspot"}, opts);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.reason(), CancelReason::kUser);
    const std::string what = c.what();
    EXPECT_NE(what.find("matrix interrupted"), std::string::npos) << what;
    EXPECT_NE(what.find("resume"), std::string::npos) << what;
  }
  EXPECT_TRUE(report.interrupted);
  // The cache file was still initialized (header write), so a rerun with
  // the token cleared resumes cleanly and completes the matrix.
  RunOptions resume = opts;
  resume.cancel = nullptr;
  resume.report = nullptr;
  const auto rows = run_matrix({Architecture::kSramBaseline}, {"bfs", "hotspot"}, resume);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_GT(rows[0].cycles, 0u);
  EXPECT_GT(rows[1].cycles, 0u);
  remove_cache_files(path);
}

TEST(SupervisedRun, MatrixKeepGoingStillCompletes) {
  // keep_going on a healthy matrix must be invisible: full results, OK
  // report, no manifest.
  RunOptions opts;
  opts.scale = kTinyScale;
  opts.jobs = 2;
  opts.keep_going = true;
  SupervisedResult report;
  opts.report = &report;
  const auto rows = run_matrix({Architecture::kC1}, {"bfs", "hotspot"}, opts);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_GT(rows[0].cycles, 0u);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.manifest(), "");
}

}  // namespace
}  // namespace sttgpu::sim
