// Crash-injection and multi-process coordination tests for the result
// store. Every scenario forks a real child process: SIGKILL mid-append is
// delivered for real (wal.hpp's byte-budget hook), and cross-process
// merging goes through the actual advisory flock — nothing is simulated
// in-process.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "store/record.hpp"
#include "store/result_store.hpp"
#include "store/wal.hpp"

namespace sttgpu::store {
namespace {

constexpr std::uint64_t kFp = 0xd180d94558f98587ull;
constexpr double kScale = 0.04;

void remove_store_files(const std::string& store_path) {
  std::remove(store_path.c_str());
  std::remove((store_path + ".lock").c_str());
  std::remove(ResultStore::quarantine_path_for(store_path).c_str());
}

ResultRow row_for_index(int i) {
  ResultRow r;
  r.arch = "C" + std::to_string(1 + i % 3);
  r.benchmark = "bench" + std::to_string(i);
  r.ipc = 1.0 + 0.125 * i;
  r.cycles = 10000 + static_cast<std::uint64_t>(i);
  r.dynamic_w = 0.5 + 0.01 * i;
  r.leakage_w = 0.1;
  r.total_w = r.dynamic_w + r.leakage_w;
  r.l2_write_share = 0.25;
  r.l2_miss_rate = 0.125;
  return r;
}

void expect_row_exact(const ResultRow& got, const ResultRow& want) {
  EXPECT_EQ(got.arch, want.arch);
  EXPECT_EQ(got.benchmark, want.benchmark);
  EXPECT_EQ(got.ipc, want.ipc);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.dynamic_w, want.dynamic_w);
  EXPECT_EQ(got.total_w, want.total_w);
}

/// Byte size of the batch wal_append() receives for put #i (the first put
/// also carries the meta record — put_many writes them as one append).
std::size_t append_size(int i) {
  std::size_t n = frame_record(encode_put(kFp, kScale, row_for_index(i))).size();
  if (i == 0) n += frame_record(kMetaPayload).size();
  return n;
}

/// Child body: crash after @p budget appended bytes while putting @p n rows
/// one at a time. Never returns through gtest — plain _exit codes only.
[[noreturn]] void crash_writer_child(const std::string& path, int n, long long budget) {
  testing_set_crash_at(budget);
  try {
    ResultStore store(path);
    for (int i = 0; i < n; ++i) store.put(kFp, kScale, row_for_index(i));
  } catch (...) {
    ::_exit(9);
  }
  ::_exit(0);  // budget was never crossed
}

TEST(StoreCrash, SigkillAtRandomizedOffsetsAlwaysRecoversTheDurablePrefix) {
  const std::string path = "test_store_crash_offsets.store";
  const int kRows = 8;
  std::size_t total = 0;
  for (int i = 0; i < kRows; ++i) total += append_size(i);

  // Deterministically seeded "random" byte offsets, plus the exact edges:
  // before the first append, on every append boundary, and past the end.
  std::vector<long long> budgets{0, static_cast<long long>(total),
                                 static_cast<long long>(total) + 64};
  {
    std::size_t cum = 0;
    for (int i = 0; i < kRows; ++i) {
      cum += append_size(i);
      budgets.push_back(static_cast<long long>(cum));      // boundary: row i lands
      budgets.push_back(static_cast<long long>(cum) - 3);  // torn mid-frame
    }
  }
  std::mt19937 rng(20260809u);
  std::uniform_int_distribution<long long> dist(1, static_cast<long long>(total) - 1);
  for (int k = 0; k < 12; ++k) budgets.push_back(dist(rng));

  for (const long long budget : budgets) {
    SCOPED_TRACE("crash budget = " + std::to_string(budget) + " bytes");
    remove_store_files(path);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) crash_writer_child(path, kRows, budget);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    if (budget < static_cast<long long>(total)) {
      ASSERT_TRUE(WIFSIGNALED(status));
      EXPECT_EQ(WTERMSIG(status), SIGKILL);
    } else {
      ASSERT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    // How many puts were fully handed to write(2) before the kill: exactly
    // the rows recovery must resurrect — no more, no fewer.
    int durable = 0;
    long long cum = 0;
    for (int i = 0; i < kRows; ++i) {
      cum += static_cast<long long>(append_size(i));
      if (cum <= budget) durable = i + 1;
    }

    ResultStore store(path);  // runs recovery (torn-tail truncation)
    EXPECT_EQ(store.size(), static_cast<std::size_t>(durable));
    for (int i = 0; i < durable; ++i) {
      const ResultRow want = row_for_index(i);
      const auto got = store.get(kFp, kScale, want.arch, want.benchmark);
      ASSERT_TRUE(got.has_value()) << "missing durable row " << i;
      expect_row_exact(*got, want);
    }
    // A torn append is damage-free loss, never corruption.
    EXPECT_EQ(store.stats().quarantine_incidents, 0u);

    // Resume: recompute only what went missing; the store ends complete.
    for (int i = durable; i < kRows; ++i) store.put(kFp, kScale, row_for_index(i));
    EXPECT_EQ(store.size(), static_cast<std::size_t>(kRows));
  }
  remove_store_files(path);
}

TEST(StoreCrash, TwoProcessesOnDisjointSlicesMergeWithoutLostRows) {
  const std::string path = "test_store_crash_merge.store";
  remove_store_files(path);
  const int kPerChild = 6;
  std::vector<pid_t> pids;
  for (int child = 0; child < 2; ++child) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        ResultStore store(path);
        for (int i = 0; i < kPerChild; ++i) {
          store.put(kFp, kScale, row_for_index(child * kPerChild + i));
          ::sched_yield();  // encourage interleaving with the sibling
        }
      } catch (...) {
        ::_exit(9);
      }
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  ResultStore store(path);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(2 * kPerChild));
  for (int i = 0; i < 2 * kPerChild; ++i) {
    const ResultRow want = row_for_index(i);
    const auto got = store.get(kFp, kScale, want.arch, want.benchmark);
    ASSERT_TRUE(got.has_value()) << "lost row " << i;
    expect_row_exact(*got, want);
  }
  EXPECT_TRUE(ResultStore::fsck(path).healthy());
  remove_store_files(path);
}

TEST(StoreCrash, ReaderSeesConsistentSnapshotsDuringActiveAppends) {
  const std::string path = "test_store_crash_reader.store";
  remove_store_files(path);
  const int kRows = 24;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      ResultStore store(path);
      for (int i = 0; i < kRows; ++i) {
        store.put(kFp, kScale, row_for_index(i));
        ::sched_yield();
      }
    } catch (...) {
      ::_exit(9);
    }
    ::_exit(0);
  }

  ResultStore reader(path);
  std::size_t last_seen = 0;
  // Poll snapshots while the writer runs: row counts must be monotonic, and
  // every row in a snapshot must be a complete, exact record — never a torn
  // or half-applied one.
  for (int spin = 0; spin < 200000 && last_seen < static_cast<std::size_t>(kRows);
       ++spin) {
    reader.refresh();
    const std::vector<ResultRow> rows = reader.rows_for(kFp, kScale);
    EXPECT_GE(rows.size(), last_seen) << "snapshot went backwards";
    last_seen = rows.size();
    for (const ResultRow& got : rows) {
      ASSERT_EQ(got.benchmark.rfind("bench", 0), 0u);
      const int i = std::stoi(got.benchmark.substr(5));
      expect_row_exact(got, row_for_index(i));
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  reader.refresh();
  EXPECT_EQ(reader.rows_for(kFp, kScale).size(), static_cast<std::size_t>(kRows));
  remove_store_files(path);
}

TEST(StoreCrash, EnvironmentVariableSeedsTheCrashBudgetInFreshProcesses) {
  // STTGPU_STORE_CRASH_AT exists so the CI smoke can SIGKILL a *real*
  // `sttgpu matrix` run mid-append. The env probe fires once per exec (a
  // forked-but-not-exec'd child inherits the already-consumed probe), so
  // exercise it the way CI does: exec the CLI with the variable set.
  const std::string cli = "../tools/sttgpu";
  if (::access(cli.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "sttgpu CLI not found at " << cli;
  }
  const std::string csv = "test_store_crash_env.csv";
  const std::string store_path = ResultStore::derive_path(csv);
  std::remove(csv.c_str());
  remove_store_files(store_path);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("STTGPU_STORE_CRASH_AT", "40", 1);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, 1);
      ::dup2(devnull, 2);
    }
    ::execl(cli.c_str(), "sttgpu", "matrix", "scale=0.04", "jobs=1",
            ("cache=" + csv).c_str(), static_cast<char*>(nullptr));
    ::_exit(9);  // exec failed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "status=" << status;
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  // 40 bytes of budget cannot hold the meta frame plus a put frame: the
  // matrix died inside its first durable append, leaving a torn tail that
  // recovery truncates without quarantining anything.
  ResultStore store(store_path);
  EXPECT_EQ(store.stats().quarantine_incidents, 0u);
  std::remove(csv.c_str());
  remove_store_files(store_path);
}

}  // namespace
}  // namespace sttgpu::store
