#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "sim/supervisor.hpp"

namespace sttgpu::sim {
namespace {

std::vector<Job> square_jobs(std::vector<int>& out, std::size_t n) {
  out.assign(n, -1);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(Job{"sq" + std::to_string(i),
                       [&out, i](const JobControl&) { out[i] = static_cast<int>(i * i); }});
  }
  return jobs;
}

TEST(Executor, DefaultJobsIsAtLeastOne) { EXPECT_GE(default_jobs(), 1u); }

TEST(Executor, ResolveJobsAutoAndExplicit) {
  EXPECT_EQ(resolve_jobs(0), default_jobs());
  EXPECT_EQ(resolve_jobs(-3), default_jobs());
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
}

TEST(Executor, ResolveJobsClampsAbsurdRequests) {
  // jobs=100000 must not spawn an unbounded pool: it is clamped to
  // max_jobs() (a small multiple of the hardware concurrency, floor 8).
  EXPECT_GE(max_jobs(), 8u);
  EXPECT_GE(max_jobs(), default_jobs());
  EXPECT_EQ(resolve_jobs(100000), max_jobs());
  EXPECT_EQ(resolve_jobs(std::numeric_limits<std::int64_t>::max()), max_jobs());
  // Values at or below the cap pass through untouched.
  EXPECT_EQ(resolve_jobs(static_cast<std::int64_t>(max_jobs())), max_jobs());
  EXPECT_EQ(resolve_jobs(2), 2u);
}

TEST(Executor, EmptyJobListIsANoOp) { run_jobs({}, 4); }

TEST(Executor, ResultsLandInIndexOrderSequential) {
  std::vector<int> out;
  run_jobs(square_jobs(out, 10), 1);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(Executor, ResultsLandInIndexOrderParallel) {
  std::vector<int> out;
  run_jobs(square_jobs(out, 100), 4);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(Executor, SequentialModeRunsInline) {
  // jobs=1 must not spawn threads: every job sees the calling thread's id.
  const std::thread::id caller = std::this_thread::get_id();
  bool inline_run = false;
  run_jobs({Job{"probe",
                [&](const JobControl&) {
                  inline_run = std::this_thread::get_id() == caller;
                }}},
           1);
  EXPECT_TRUE(inline_run);
}

TEST(Executor, MoreThreadsThanJobsStillRunsEverything) {
  std::vector<int> out;
  run_jobs(square_jobs(out, 3), 16);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 4}));
}

TEST(Executor, ExceptionCarriesJobLabel) {
  std::vector<Job> jobs;
  jobs.push_back(Job{"ok", [](const JobControl&) {}});
  jobs.push_back(Job{"C1/bfs", [](const JobControl&) { throw SimError("bank exploded"); }});
  try {
    run_jobs(std::move(jobs), 2);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("C1/bfs"), std::string::npos) << what;
    EXPECT_NE(what.find("bank exploded"), std::string::npos) << what;
  }
}

TEST(Executor, SequentialFailureStopsLaterJobs) {
  bool later_ran = false;
  std::vector<Job> jobs;
  jobs.push_back(Job{"boom", [](const JobControl&) { throw SimError("boom"); }});
  jobs.push_back(Job{"later", [&](const JobControl&) { later_ran = true; }});
  EXPECT_THROW(run_jobs(std::move(jobs), 1), SimError);
  EXPECT_FALSE(later_ran);
}

TEST(Executor, ParallelFailureReportsLowestIndex) {
  // Both failures are dispatched before either can set the failed flag
  // (two workers, two jobs), so both land in the error list; the report
  // must pick index 0 deterministically, not completion order.
  std::vector<Job> jobs;
  jobs.push_back(Job{"first", [](const JobControl&) {
                       std::this_thread::sleep_for(std::chrono::milliseconds(50));
                       throw SimError("slow failure");
                     }});
  jobs.push_back(Job{"second", [](const JobControl&) { throw SimError("fast failure"); }});
  try {
    run_jobs(std::move(jobs), 2);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos) << e.what();
  }
}

TEST(Executor, AggregatesMultipleFailuresWithCountAndLabels) {
  // All eight jobs rendezvous before any of them throws, so every failure is
  // in flight when the fail-fast flag trips and all eight must be reported:
  // a count, the first five labels in index order, and a tally of the rest.
  constexpr int kJobs = 8;
  std::atomic<int> started{0};
  std::vector<Job> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(Job{"fail" + std::to_string(i), [&started](const JobControl&) {
                         ++started;
                         while (started.load() < kJobs) std::this_thread::yield();
                         throw SimError("boom");
                       }});
  }
  try {
    run_jobs(std::move(jobs), kJobs);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("8 jobs failed"), std::string::npos) << what;
    for (int i = 0; i < 5; ++i) {
      EXPECT_NE(what.find("'fail" + std::to_string(i) + "'"), std::string::npos) << what;
    }
    EXPECT_EQ(what.find("'fail5'"), std::string::npos) << what;
    EXPECT_NE(what.find("and 3 more"), std::string::npos) << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
  }
}

TEST(Executor, ParallelRunsAllJobsWhenHealthy) {
  std::atomic<int> count{0};
  std::vector<Job> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back(Job{"j", [&](const JobControl&) { ++count; }});
  }
  run_jobs(std::move(jobs), 8);
  EXPECT_EQ(count.load(), 64);
}

// --- stress: hundreds of jobs, injected failures, cancellation races ---

TEST(ExecutorStress, HundredsOfJobsLandDeterministically) {
  constexpr std::size_t kJobs = 400;
  std::vector<int> out;
  run_jobs(square_jobs(out, kJobs), 16);
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i * i)) << "slot " << i;
  }
}

TEST(ExecutorStress, InjectedFailuresRetryToCompletion) {
  // Every third job fails on its first two attempts; with retries=2 the
  // whole fleet must converge with exactly the expected attempt counts.
  constexpr std::size_t kJobs = 300;
  std::vector<std::atomic<int>> calls(kJobs);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    Job j;
    j.label = "s" + std::to_string(i);
    const bool flaky = i % 3 == 0;
    j.fn = [&calls, i, flaky](const JobControl&) {
      if (flaky && ++calls[i] < 3) throw SimError("injected");
    };
    jobs.push_back(std::move(j));
  }
  SupervisorOptions opts;
  opts.retries = 2;
  opts.retry_backoff_s = 0.0;  // stress throughput, not the backoff clock
  const SupervisedResult r = run_supervised(std::move(jobs), 8, opts);
  EXPECT_TRUE(r.all_ok());
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(r.outcomes[i].attempts, i % 3 == 0 ? 3u : 1u) << "job " << i;
  }
}

TEST(ExecutorStress, KeepGoingAggregatesEveryPermanentFailure) {
  // A deterministic subset fails permanently; quarantine must record every
  // single one (complete failure aggregation) while the rest complete.
  constexpr std::size_t kJobs = 250;
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    Job j;
    j.label = "k" + std::to_string(i);
    const bool doomed = i % 10 == 7;
    j.fn = [doomed](const JobControl&) {
      if (doomed) throw SimError("permanent");
    };
    jobs.push_back(std::move(j));
  }
  SupervisorOptions opts;
  opts.keep_going = true;
  const SupervisedResult r = run_supervised(std::move(jobs), 8, opts);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const bool doomed = i % 10 == 7;
    EXPECT_EQ(r.outcomes[i].status, doomed ? JobStatus::kFailed : JobStatus::kOk)
        << "job " << i;
    failed += doomed;
  }
  EXPECT_EQ(r.count(JobStatus::kFailed), failed);
  EXPECT_EQ(r.count(JobStatus::kSkipped), 0u);
}

TEST(ExecutorStress, MidRunCancellationStopsTheFleet) {
  // Cancel once a prefix has completed: completed jobs stay OK, nothing
  // deadlocks, and the remainder is cancelled or skipped — never lost.
  constexpr std::size_t kJobs = 200;
  CancelToken cancel;
  std::atomic<std::size_t> done{0};
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    Job j;
    j.label = "c" + std::to_string(i);
    j.fn = [&cancel, &done](const JobControl& ctl) {
      if (++done == 40) cancel.request(CancelReason::kUser);
      // Give the monitor time to observe and forward the request so the
      // tail of the fleet is reliably cancelled, not raced to completion.
      for (int spin = 0; spin < 20; ++spin) {
        ctl.checkpoint();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    jobs.push_back(std::move(j));
  }
  SupervisorOptions opts;
  opts.external = &cancel;
  const SupervisedResult r = run_supervised(std::move(jobs), 8, opts);
  EXPECT_TRUE(r.interrupted);
  std::size_t ok = 0, stopped = 0;
  for (const JobOutcome& o : r.outcomes) {
    switch (o.status) {
      case JobStatus::kOk: ++ok; break;
      case JobStatus::kCancelled:
      case JobStatus::kSkipped: ++stopped; break;
      default: FAIL() << "unexpected status for " << o.label;
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(stopped, 1u);
  EXPECT_EQ(ok + stopped, kJobs);
}

}  // namespace
}  // namespace sttgpu::sim
