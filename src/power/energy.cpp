#include "power/energy.hpp"

namespace sttgpu::power {

PicoJoule EnergyLedger::category_pj(const std::string& category) const {
  const auto it = index_.find(category);
  return it == index_.end() ? 0.0 : values_[it->second];
}

std::map<std::string, PicoJoule> EnergyLedger::categories() const {
  std::map<std::string, PicoJoule> out;
  for (std::size_t i = 0; i < names_.size(); ++i) out.emplace(names_[i], values_[i]);
  return out;
}

void EnergyLedger::merge(const EnergyLedger& other) {
  for (std::size_t i = 0; i < other.names_.size(); ++i) {
    values_[intern(other.names_[i])] += other.values_[i];
  }
  total_pj_ += other.total_pj_;
}

void EnergyLedger::reset() {
  names_.clear();
  values_.clear();
  index_.clear();
  total_pj_ = 0.0;
}

}  // namespace sttgpu::power
