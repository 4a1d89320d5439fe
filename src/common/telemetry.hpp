// Interval telemetry: a per-interval sampler every timed component feeds.
//
// The GPU opens a frame at each interval boundary (and once at the end of
// the run for the final partial interval); components then record
//   * counter tracks — cumulative event counts (instructions, hits, reads,
//     migrations, refreshes...). Exports report per-interval increments.
//   * gauge tracks   — instantaneous values (occupancy, buffer depth,
//     queue fill).
// Outside frames, components may add duration slices (kernels, refresh
// storms) and instant markers (fault data loss) to the timeline.
//
// Sampling is pull-based and purely observational: no component changes
// behaviour when a Telemetry sink is attached, so every aggregate metric is
// byte-identical with telemetry on or off (tests/test_sim_telemetry.cpp).
// The event-driven fast-forward walks interval boundaries inside skipped
// stretches in closed form, so the sampled series is also identical between
// fastforward=0 and fastforward=1.
//
// Exports:
//   * write_json(JsonWriter&) — time-series block for the run JSON report;
//   * write_chrome_trace(os)  — Chrome trace-event JSON (load in Perfetto:
//     counter tracks + kernel/refresh slices), timestamps in microseconds;
//   * write_csv(os)           — one row per interval, for quick plotting.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace sttgpu {

class JsonWriter;

class Telemetry {
 public:
  /// Samples every @p interval_cycles cycles (must be >= 1). One Telemetry
  /// instance observes exactly one run — attach a fresh one per Gpu.
  explicit Telemetry(Cycle interval_cycles);

  Cycle interval() const noexcept { return interval_; }

  /// Wall-time scale for trace export; set by the Gpu from its core clock.
  void set_us_per_cycle(double us_per_cycle);
  double us_per_cycle() const noexcept { return us_per_cycle_; }

  // --- sampling (driven at interval boundaries) ---

  /// Opens the frame ending at cycle @p now (strictly after the previous
  /// frame's cycle). All counter()/gauge() calls until end_frame() belong
  /// to this frame.
  void begin_frame(Cycle now);

  /// Records the *cumulative* value of a counter track; exports derive the
  /// per-interval increment. One sample per track per frame.
  void counter(std::string_view track, std::uint64_t cumulative);

  /// Records an instantaneous value. One sample per track per frame.
  void gauge(std::string_view track, double value);

  /// Closes the frame. Tracks not sampled this frame carry their previous
  /// value forward (a zero increment), so late-registered tracks are safe.
  void end_frame();

  bool in_frame() const noexcept { return in_frame_; }

  /// Observer invoked synchronously at the end of end_frame() with the
  /// just-closed frame index — the sweep service streams live telemetry
  /// events from it. Purely observational (no effect on sampling); runs on
  /// the simulating thread, so keep it short.
  void set_on_frame(std::function<void(const Telemetry&, std::size_t frame)> fn) {
    on_frame_ = std::move(fn);
  }

  // --- timeline events (any time, frames not required) ---

  /// A duration slice [begin, end] on @p track (e.g. "kernel" / "l2b0.refresh").
  void slice(std::string_view track, std::string_view name, Cycle begin, Cycle end);

  /// An instant marker at @p at (e.g. a fault-model data-loss event).
  void instant(std::string_view track, std::string_view name, Cycle at);

  // --- inspection (report writer, tests) ---

  std::size_t frame_count() const noexcept { return frame_cycles_.size(); }
  Cycle frame_cycle(std::size_t frame) const { return frame_cycles_.at(frame); }

  std::size_t track_count() const noexcept { return tracks_.size(); }
  const std::string& track_name(std::size_t track) const { return tracks_.at(track).name; }
  bool track_is_counter(std::size_t track) const { return tracks_.at(track).is_counter; }

  /// Raw per-frame samples: cumulative values for counter tracks,
  /// instantaneous values for gauges. Size == frame_count().
  const std::vector<double>& track_samples(std::size_t track) const {
    return tracks_.at(track).samples;
  }

  /// Per-interval increments of a counter track (== samples for gauges).
  std::vector<double> track_deltas(std::size_t track) const;

  /// Index of the track named @p name; npos when absent.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find_track(std::string_view name) const;

  std::size_t slice_count() const noexcept { return slices_.size(); }
  std::size_t instant_count() const noexcept { return instants_.size(); }

  // --- export ---

  /// Writes the time-series block as one JSON value (the caller has just
  /// written the enclosing key): {"interval":..,"cycle":[..],
  /// "counters":{name:[increments..]},"gauges":{name:[values..]}}.
  void write_json(JsonWriter& w) const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}); open in Perfetto or
  /// chrome://tracing. Counter events carry per-interval increments; events
  /// are emitted in non-decreasing timestamp order.
  void write_chrome_trace(std::ostream& os) const;

  /// CSV: header "cycle,<track>..." then one row per frame (counter columns
  /// hold per-interval increments, gauge columns instantaneous values).
  void write_csv(std::ostream& os) const;

 private:
  struct Track {
    std::string name;
    bool is_counter = false;
    std::vector<double> samples;  ///< one per frame (padded by end_frame)
  };
  struct Slice {
    std::string track;
    std::string name;
    Cycle begin = 0;
    Cycle end = 0;
  };
  struct Instant {
    std::string track;
    std::string name;
    Cycle at = 0;
  };

  Track& track_for(std::string_view name, bool is_counter);
  void record(std::string_view name, bool is_counter, double value);

  Cycle interval_;
  double us_per_cycle_ = 1.0;
  bool in_frame_ = false;
  std::vector<Cycle> frame_cycles_;
  std::vector<Track> tracks_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<Slice> slices_;
  std::vector<Instant> instants_;
  std::function<void(const Telemetry&, std::size_t)> on_frame_;
};

}  // namespace sttgpu
