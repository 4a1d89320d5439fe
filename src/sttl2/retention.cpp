#include "sttl2/retention.hpp"

#include "common/error.hpp"

namespace sttgpu::sttl2 {

RetentionClock::RetentionClock(double retention_s, unsigned counter_bits,
                               const Clock& clock)
    : bits_(counter_bits) {
  STTGPU_REQUIRE(retention_s > 0.0, "RetentionClock: retention must be positive");
  STTGPU_REQUIRE(counter_bits >= 1 && counter_bits <= 16,
                 "RetentionClock: counter bits out of range");
  retention_cycles_ = clock.cycles_for_ns(seconds_to_ns(retention_s));
  const Cycle ticks = Cycle{1} << bits_;
  tick_cycles_ = retention_cycles_ / ticks;
  STTGPU_REQUIRE(tick_cycles_ >= 1,
                 "RetentionClock: counter too wide for this retention time");
}

unsigned RetentionClock::counter_value(Cycle written_at, Cycle now) const noexcept {
  if (now <= written_at) return 0;
  const Cycle age = now - written_at;
  const Cycle ticks = age / tick_cycles_;
  const Cycle max = (Cycle{1} << bits_) - 1;
  return static_cast<unsigned>(ticks > max ? max : ticks);
}

void DeadlineIndex::set(std::uint64_t set, unsigned way, Cycle key) {
  if (nodes_.empty()) nodes_.resize(sets_ * ways_);
  const auto slot = static_cast<std::uint32_t>(set * ways_ + way);
  unlink(slot);
  std::uint32_t prev = tail_;
  while (prev != kNil && nodes_[prev].key > key) prev = nodes_[prev].prev;
  Node& n = nodes_[slot];
  n.key = key;
  n.prev = prev;
  n.next = prev == kNil ? head_ : nodes_[prev].next;
  (n.next == kNil ? tail_ : nodes_[n.next].prev) = slot;
  (prev == kNil ? head_ : nodes_[prev].next) = slot;
  ++size_;
}

void DeadlineIndex::erase(std::uint64_t set, unsigned way) noexcept {
  if (!nodes_.empty()) unlink(static_cast<std::uint32_t>(set * ways_ + way));
}

DeadlineIndex::Slot DeadlineIndex::pop_front() noexcept {
  const std::uint32_t slot = head_;
  unlink(slot);
  return {slot / ways_, slot % ways_};
}

void DeadlineIndex::unlink(std::uint32_t slot) noexcept {
  Node& n = nodes_[slot];
  if (n.key == kNoCycle) return;
  (n.prev == kNil ? head_ : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? tail_ : nodes_[n.next].prev) = n.prev;
  n.key = kNoCycle;
  --size_;
}

}  // namespace sttgpu::sttl2
