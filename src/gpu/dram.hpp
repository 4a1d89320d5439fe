// Off-chip DRAM channel model: one channel per memory controller / L2 bank
// (Table 2: each L2 bank has a point-to-point link to its own controller).
//
// Bandwidth is a ThroughputPipe (per-256B service gap); the access latency
// on top is either a fixed closed-page latency (default) or, in open-page
// mode, a row-buffer model where hits to the channel's last-activated row
// are faster. Reads complete with a callback to the owning L2 bank;
// writebacks are fire and forget (they still consume bandwidth and move the
// open row). Closed-page reads complete in admission order (one latency
// behind a monotone pipe), so they wait in a FIFO; open-page row hits can
// overtake earlier misses, so that mode scans a small unordered window.
#pragma once

#include <cstdint>
#include <vector>
#include <functional>

#include "common/ring_queue.hpp"
#include "common/types.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/pipe.hpp"

namespace sttgpu {
class Telemetry;
}

namespace sttgpu::gpu {

class DramChannel {
 public:
  using ReadCallback = std::function<void(std::uint64_t cookie, Cycle now)>;

  DramChannel(const GpuConfig& config, ReadCallback on_read_done);

  /// Issues a line read; @p cookie is returned through the callback.
  void read(Addr addr, std::uint64_t cookie, Cycle now);

  /// Issues a writeback (no completion callback).
  void write(Addr addr, Cycle now);

  /// Delivers read completions due at or before @p now. Inline single
  /// compare when nothing is due (the earliest pending completion is
  /// cached); the delivery scan stays out of line.
  void tick(Cycle now) {
    if (now < min_ready_) return;
    deliver_due(now);
  }

  /// Earliest absolute cycle at which this channel has a completion to
  /// deliver; kNoCycle when nothing is pending. O(1): maintained on read()
  /// and recomputed when tick() delivers.
  Cycle next_event_cycle() const noexcept { return min_ready_; }

  /// Contributes this channel's counter tracks ("dramN.reads", ...) to the
  /// open telemetry frame; per-interval bandwidth is the increment times the
  /// line size over the interval's wall time.
  void sample_telemetry(unsigned channel, Telemetry& out) const;

  std::uint64_t reads() const noexcept { return reads_; }
  std::uint64_t writes() const noexcept { return writes_; }
  /// Reads admitted with zero channel backlog — the closed-form ("express")
  /// completion schedule; the rest queued behind earlier transfers. A pure
  /// contention property of the run, identical in both stepping loops.
  std::uint64_t express_reads() const noexcept { return express_reads_; }
  std::uint64_t queued_reads() const noexcept { return reads_ - express_reads_; }
  std::uint64_t row_hits() const noexcept { return row_hits_; }
  std::uint64_t row_misses() const noexcept { return row_misses_; }
  bool idle() const noexcept { return fifo_.empty() && window_.empty(); }

 private:
  struct Pending {
    Cycle ready;
    std::uint64_t cookie;
  };

  Cycle access_latency(Addr addr) noexcept;
  void deliver_due(Cycle now);

  ThroughputPipe pipe_;
  ReadCallback on_read_done_;
  RingQueue<Pending> fifo_;       // closed page: ready cycles ascend
  std::vector<Pending> window_;   // open page: unordered (row hits reorder)
  Cycle min_ready_ = kNoCycle;    // earliest pending ready cycle
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t express_reads_ = 0;

  // Row-buffer state (open-page mode)
  bool open_page_ = false;
  std::uint64_t row_bytes_ = 2048;
  Cycle miss_latency_ = 220;
  Cycle hit_latency_ = 140;
  bool have_open_row_ = false;
  Addr open_row_ = 0;
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
};

}  // namespace sttgpu::gpu
