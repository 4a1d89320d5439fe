// Shared plumbing of the end-to-end benchmark: arguments, the per-run
// report, timing helpers and scratch directories. Every workload measures
// with std::chrono::steady_clock from this file's own code around calls into
// the simulator's public API; nothing here reaches inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times one call of @p fn in seconds.
inline double time_s(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test: same code paths, seconds of work.
  bool quick = false;
  /// Optional results file (one JSON line, the stdout result plus identity).
  std::string out;
};

/// What one run reports: the correctness verdict, the operation counts and
/// the metrics, in the order they are printed.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Records one check of a correctness gate (repeated checks of the same
  /// gate print as one line); a failing check counts as one failed
  /// operation and makes the run incorrect.
  void gate(const std::string& what, bool ok);

  /// Adds a human-readable line to the printed report (not to the JSON).
  void note(const std::string& line) { notes_.push_back(line); }

  /// Counts @p n attempted operations of which @p failed failed.
  void ops(std::uint64_t n, std::uint64_t failed = 0) {
    attempted_ += n;
    failed_ += failed;
  }

  bool correct() const { return correct_ && failed_ == 0; }

  /// Prints the human-readable lines and, last, the one-line JSON result.
  void print(const Args& args) const;

  /// Writes the JSON result, led by the run's identity (workload, seed,
  /// seconds, trace, quick) so compare.py can group result files, to @p path.
  void write(const Args& args, const std::string& path) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Gate {
    std::string what;
    std::uint64_t checks, failures;
  };
  /// The one-line result; with @p identity, the run's identity comes first.
  std::string json(const Args* identity) const;

  std::vector<Metric> metrics_;
  std::vector<Gate> gates_;
  std::vector<std::string> notes_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median (mean of the middle pair for even sizes); 0 for an empty input.
double median(std::vector<double> v);

/// The highest percentile that leaves at least ten samples above it
/// (p99 at n = 1000, p87.5 at n = 80); the maximum when n < 10.
double tail(std::vector<double> v);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Set-up repetitions per run, at least; setup_s is their median.
inline constexpr std::size_t kSetupReps = 21;

/// Samples of an untraced run. A pass is one unit of the workload's timed
/// work; each pass contributes its wall time and the median and tail of
/// the latencies of the requests it made.
struct Passes {
  std::vector<double> setup_s, wall_s, p50_ms, tail_ms;
  std::size_t requests_per_pass = 0;

  /// Records one pass made of requests with latencies @p request_ms.
  void add(double wall, const std::vector<double>& request_ms);

  /// True when another pass as long as the median pass so far still ends
  /// within @p seconds of @p start. Runs always make at least one pass.
  bool another(Clock::time_point start, double seconds) const;

  /// wall_s, setup_s, latency_p50_ms, latency_tail_ms (medians over passes)
  /// and peak_rss_mb: the end-to-end metrics of every untraced run.
  void emit(Report& report) const;
};

/// A fresh directory under the checkout's build tree (never /tmp: the
/// benchmark reads and writes only inside its checkout), removed on
/// destruction. Paths stay relative so unix socket paths stay short.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Whole file as bytes; throws when unreadable.
std::string read_file(const std::string& path);

/// The checked-in Fig. 8 export every Fig. 8 gate compares against.
inline constexpr char kReferenceCsv[] = "fig8_cache.csv";

// --- workloads (one file each) ----------------------------------------------

Report run_fig8_cold(const Args& args);
Report run_fig8_warm(const Args& args);
Report run_sparse_drain(const Args& args);
Report run_serve_closed(const Args& args);

}  // namespace e2e
