#include "gpu/dram.hpp"

#include <string>

#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace sttgpu::gpu {

DramChannel::DramChannel(const GpuConfig& config, ReadCallback on_read_done)
    : pipe_(0, config.dram_service_gap),
      on_read_done_(std::move(on_read_done)),
      open_page_(config.dram_open_page),
      row_bytes_(config.dram_row_bytes),
      miss_latency_(config.dram_latency),
      hit_latency_(config.dram_row_hit_latency) {
  STTGPU_REQUIRE(static_cast<bool>(on_read_done_), "DramChannel: callback required");
  STTGPU_REQUIRE(!open_page_ || is_pow2(row_bytes_),
                 "DramChannel: row size must be a power of two");
}

Cycle DramChannel::access_latency(Addr addr) noexcept {
  if (!open_page_) return miss_latency_;
  const Addr row = addr / row_bytes_;
  const bool hit = have_open_row_ && row == open_row_;
  have_open_row_ = true;
  open_row_ = row;
  if (hit) {
    ++row_hits_;
    return hit_latency_;
  }
  ++row_misses_;
  return miss_latency_;
}

void DramChannel::read(Addr addr, std::uint64_t cookie, Cycle now) {
  // The pipe models bank/bus occupancy (zero latency); the page policy
  // decides the access latency added on top.
  express_reads_ += pipe_.backlog(now) == 0 ? 1 : 0;
  const Cycle ready = pipe_.admit(now) + access_latency(addr);
  if (open_page_) {
    window_.push_back({ready, cookie});
  } else {
    fifo_.push_back({ready, cookie});
  }
  if (ready < min_ready_) min_ready_ = ready;
  ++reads_;
}

void DramChannel::write(Addr addr, Cycle now) {
  // Writebacks consume channel bandwidth but need no completion signal.
  (void)pipe_.admit(now);
  (void)access_latency(addr);  // they still move the open row
  ++writes_;
}

void DramChannel::deliver_due(Cycle now) {
  if (!open_page_) {
    while (!fifo_.empty() && fifo_.front().ready <= now) {
      const std::uint64_t cookie = fifo_.front().cookie;
      fifo_.pop_front();
      on_read_done_(cookie, now);
    }
    min_ready_ = fifo_.empty() ? kNoCycle : fifo_.front().ready;
    return;
  }
  // Open-page hits can complete before earlier row misses; scan the small
  // window rather than assuming FIFO completion order. The scan and
  // swap-remove order fix the delivery order of same-cycle completions.
  for (std::size_t i = 0; i < window_.size();) {
    if (window_[i].ready <= now) {
      const Pending p = window_[i];
      window_[i] = window_.back();
      window_.pop_back();
      on_read_done_(p.cookie, now);
    } else {
      ++i;
    }
  }
  min_ready_ = kNoCycle;
  for (const Pending& p : window_) min_ready_ = p.ready < min_ready_ ? p.ready : min_ready_;
}

void DramChannel::sample_telemetry(unsigned channel, Telemetry& out) const {
  const std::string p = "dram" + std::to_string(channel) + '.';
  out.counter(p + "reads", reads_);
  out.counter(p + "writes", writes_);
  out.counter(p + "express_reads", express_reads_);
  if (open_page_) {
    out.counter(p + "row_hits", row_hits_);
    out.counter(p + "row_misses", row_misses_);
  }
}

}  // namespace sttgpu::gpu
