// Statistics plumbing: counters, streaming mean/variance, histograms with
// user-defined bucket edges, and a coefficient-of-variation helper used for
// the paper's Figure 3 (inter/intra-set write variation, after i2WAP).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace sttgpu {

/// Welford streaming mean / variance accumulator.
class StreamStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
  }

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  double variance() const noexcept { return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0; }
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

  /// Coefficient of variation (stddev / mean); zero when mean is zero.
  double cov() const noexcept;

  void reset() noexcept { *this = StreamStats{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Histogram over explicit upper-edge buckets plus an implicit overflow
/// bucket. Edges must be strictly increasing. Example (Fig. 6 buckets):
///   Histogram h({10e3, 50e3, 100e3, 1e6, 2.5e6});  // ns edges
class Histogram {
 public:
  /// No buckets and no allocation: a placeholder that must not be add()ed to.
  Histogram() = default;
  explicit Histogram(std::vector<double> upper_edges);

  void add(double value, std::uint64_t weight = 1) noexcept;

  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const noexcept { return counts_[i]; }
  std::uint64_t overflow() const noexcept { return counts_.back(); }
  std::uint64_t total() const noexcept { return total_; }
  double upper_edge(std::size_t i) const noexcept { return edges_[i]; }

  /// Fraction of all samples falling in bucket @p i (0 if empty histogram).
  double fraction(std::size_t i) const noexcept;

  /// Fraction of samples with value <= edges_[i]. Prefix sums are computed
  /// once after the last add() and cached, so report loops calling this for
  /// every bucket stay O(n) total instead of O(n^2).
  double cumulative_fraction(std::size_t i) const noexcept;

  void reset() noexcept;

 private:
  std::vector<double> edges_;        // strictly increasing upper edges
  std::vector<std::uint64_t> counts_;  // edges_.size() + 1 (last = overflow)
  std::uint64_t total_ = 0;
  // Lazily rebuilt inclusive prefix sums over counts_; invalidated by add().
  mutable std::vector<std::uint64_t> prefix_;
  mutable bool prefix_valid_ = false;
};

/// Computes the coefficient of variation of a vector of counts.
/// Returns 0 when the mean is zero (an all-cold region has no variation).
double coefficient_of_variation(const std::vector<std::uint64_t>& counts) noexcept;

/// Geometric mean of strictly positive values; returns 0 for empty input.
double geometric_mean(const std::vector<double>& values) noexcept;

/// Dense handle for one counter in a CounterSet (valid only for the set that
/// interned it).
using CounterId = std::uint32_t;

/// A named bag of integral counters, suitable for dumping after a run.
///
/// Hot paths intern their counter names once (at component construction) and
/// bump through at(CounterId) — a vector index, no string lookup per event.
/// There is no string-keyed mutator: every writer holds a CounterId.
class CounterSet {
 public:
  /// Resolves @p name to a dense id, creating the counter (at 0) on first use.
  CounterId intern(const std::string& name) {
    const auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    const CounterId id = static_cast<CounterId>(values_.size());
    index_.emplace(name, id);
    names_.push_back(name);
    values_.push_back(0);
    return id;
  }

  /// Hot path: counter slot for a pre-interned handle.
  std::uint64_t& at(CounterId id) noexcept { return values_[id]; }
  std::uint64_t at(CounterId id) const noexcept { return values_[id]; }

  std::uint64_t get(const std::string& name) const;

  /// Enumeration by dense id (telemetry sampling, report loops): ids are
  /// 0..size()-1 in interning order.
  std::size_t size() const noexcept { return values_.size(); }
  const std::string& name(CounterId id) const noexcept { return names_[id]; }

  /// Report-time view: name -> value, sorted by name. Materialized on demand.
  std::map<std::string, std::uint64_t> all() const;
  bool empty() const noexcept { return values_.empty(); }

  void merge(const CounterSet& other);

 private:
  std::vector<std::string> names_;      ///< id -> counter name
  std::vector<std::uint64_t> values_;   ///< id -> value
  std::unordered_map<std::string, CounterId> index_;
};

}  // namespace sttgpu
