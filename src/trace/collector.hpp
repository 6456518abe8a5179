#pragma once
// Per-track span and cycle-attribution collector.
//
// One Collector instance backs one timeline track: a simulated Cpu, a node's
// runtime (barriers, idle, IXS waits), an I/O device clock, or the PRODLOAD
// scheduler. The owner is the single writer — a Cpu's collector is only
// touched by the rank charging that Cpu, which is exactly the discipline
// Node::parallel already imposes on the Cpu itself — so recording needs no
// synchronisation and is bit-identical under sequential and threaded host
// execution.
//
// Two recording tiers, selected by trace::mode():
//   * aggregation counters (per-category tick totals plus a chronological
//     track total) are ALWAYS maintained — the off-mode cost is a couple of
//     double additions per charge;
//   * spans ({start, duration, category, tag}) are recorded in Mode::Full
//     and Mode::Stream, and only by forwarding them to the attached
//     stream::TrackSink; the Collector itself keeps none. A span with no
//     sink attached is counted in dropped_spans().
//
// Ticks are the owner's native time unit (cycles for Cpu/node tracks,
// seconds for device clocks); seconds_per_tick() declares the conversion so
// exporters can place every track on one microsecond timeline.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "trace/category.hpp"

namespace ncar::trace {

namespace stream {
class TrackSink;
}  // namespace stream

class Collector {
public:
  /// `seconds_per_tick` converts this track's native unit to seconds
  /// (a Cpu passes its clock period; device clocks pass 1.0).
  explicit Collector(double seconds_per_tick = 1.0)
      : seconds_per_tick_(seconds_per_tick) {}

  // --- counters (always on) ----------------------------------------------
  /// Accumulate onto the chronological track total. Cpu mirrors every
  /// charge here with the *same* addition it applies to its cycle counter,
  /// so total_ticks() stays bit-identical to the owner's clock.
  void count_total(double ticks) { total_ += ticks; }
  /// Accumulate onto one category's counter (no total, no span).
  void count(Category c, double ticks) {
    category_[static_cast<std::size_t>(c)] += ticks;
  }

  // --- spans (Mode::Full and Mode::Stream) -------------------------------
  /// Record a span: forwarded to the attached sink in Mode::Full and
  /// Mode::Stream (dropped and counted when none is attached).
  void span(Category c, double start, double ticks, const char* tag);

  /// Attach/detach the span destination. The sink must outlive
  /// every span() call that can see it; pass nullptr to detach.
  void set_stream_sink(stream::TrackSink* sink) { stream_ = sink; }
  stream::TrackSink* stream_sink() const { return stream_; }

  /// Convenience for simple tracks: total + category counter + span.
  void add(Category c, double start, double ticks, const char* tag);

  // --- accessors ----------------------------------------------------------
  double total_ticks() const { return total_; }
  double category_ticks(Category c) const {
    return category_[static_cast<std::size_t>(c)];
  }
  /// Spans recorded while no sink was attached, since the last reset.
  std::uint64_t dropped_spans() const { return dropped_; }
  double seconds_per_tick() const { return seconds_per_tick_; }
  /// The Chrome export's per-track span cap, for the .sxt track header.
  std::size_t max_spans() const { return kMaxSpansPerTrack; }

  /// Copy `name` into collector-owned stable storage (span tags outlive the
  /// strings they were built from; deque elements never move).
  const char* intern(std::string_view name);

  /// Zero counters and the drop count (interned tags are kept — they are
  /// evaluator details, like the op-cost caches). An attached streaming
  /// sink starts a new epoch.
  void reset();

private:
  double seconds_per_tick_;
  double total_ = 0;
  double category_[kCategoryCount] = {};
  std::uint64_t dropped_ = 0;
  stream::TrackSink* stream_ = nullptr;
  std::deque<std::string> interned_;
};

}  // namespace ncar::trace
