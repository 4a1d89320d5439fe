// Dynamic-energy accounting.
//
// Components charge events to an EnergyLedger under named categories
// ("l2.tag_probe", "l2.data_write", "l2.refresh", ...). At the end of a run
// sim::metrics_of converts the accumulated energy plus static leakage into
// the dynamic and total wattages the paper's Figures 8b and 8c plot.
//
// Hot-path interning: the per-access charge sites (the L2 banks) resolve
// their category names to dense EnergyId handles once at construction and
// charge through add(EnergyId, pj) — a vector index, no string hashing or
// tree walk per access. All charging goes through EnergyId handles; the
// string-keyed readers (category_pj, categories) remain for reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace sttgpu::power {

/// Dense handle for one ledger category (valid only for the ledger that
/// interned it).
using EnergyId = std::uint32_t;

class EnergyLedger {
 public:
  /// Resolves @p category to a dense id, creating it (at 0 pJ) on first use.
  /// Intended to be called once per category at component construction.
  EnergyId intern(const std::string& category) {
    const auto it = index_.find(category);
    if (it != index_.end()) return it->second;
    const EnergyId id = static_cast<EnergyId>(values_.size());
    index_.emplace(category, id);
    names_.push_back(category);
    values_.push_back(0.0);
    return id;
  }

  /// Hot path: charge through a pre-interned handle.
  void add(EnergyId id, PicoJoule pj) noexcept {
    values_[id] += pj;
    total_pj_ += pj;
  }

  PicoJoule total_pj() const noexcept { return total_pj_; }
  PicoJoule category_pj(const std::string& category) const;

  /// Report-time view: category name -> accumulated pJ, sorted by name.
  /// Materialized on demand (the hot path never touches a map).
  std::map<std::string, PicoJoule> categories() const;

  void merge(const EnergyLedger& other);
  void reset();

 private:
  std::vector<std::string> names_;   ///< id -> category name
  std::vector<PicoJoule> values_;    ///< id -> accumulated energy
  std::unordered_map<std::string, EnergyId> index_;
  PicoJoule total_pj_ = 0.0;
};

}  // namespace sttgpu::power
