#pragma once
// TrackSink — the per-track (per-CPU) staging ring of the streaming sink.
//
// One TrackSink backs one Collector in SX4NCAR_TRACE=full and =stream
// mode, under the same single-writer discipline: only the rank that owns
// the Cpu touches its sink, so record() needs no synchronisation. The ring
// is a fixed preallocated array of RawRecords; the per-span path writes
// one slot and bumps a counter — no allocation, no branching on file
// state.
// When the ring fills, the sink encodes it (codec.hpp) into preallocated
// scratch and hands the raw chunk to the Writer, which serialises file
// appends behind a mutex. Only that once-per-chunk handoff contends; the
// optional LZ stage runs once at finalize, on the chunks that
// survive epoch compaction, so dead-epoch records never pay for packing.
//
// Epochs mirror Collector::reset: resetting a collector abandons its
// pending ring and bumps the sink's epoch, so chunks written before the
// reset become dead weight that Writer::finalize compacts away — the
// converted trace shows the spans since the last reset.
//
// Drops are counted, never blocking: when a file write has failed, the
// chunk's spans are discarded and dropped() grows.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/category.hpp"
#include "trace/stream/codec.hpp"

namespace ncar::trace::stream {

class Writer;

class TrackSink {
public:
  /// Stage one span. Called from the owning rank only (charge path):
  /// one ring-slot store plus a tag lookup that is a pointer compare for
  /// a repeated tag and one hash probe otherwise.
  void record(Category c, double start, double ticks, const char* tag) {
    RawRecord& r = ring_[fill_];
    r.start = start;
    r.duration = ticks;
    r.tag = tag == last_tag_ ? last_tag_id_ : tag_id(tag);
    r.category = static_cast<std::uint8_t>(c);
    ++fill_;
    ++live_records_;
    if (fill_ == ring_.size()) flush();
  }

  /// Collector::reset hook: abandon pending records, start a new epoch.
  void on_reset();

  /// Spans discarded (writer missing or failed) since the last reset.
  std::uint64_t dropped() const { return dropped_; }
  /// Records staged or written in the current epoch.
  std::uint64_t live_records() const { return live_records_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Tag-table snapshot (id order). Strings are sink-owned copies.
  const std::vector<std::string>& tags() const { return tags_; }

private:
  friend class Writer;
  TrackSink(Writer* writer, std::uint32_t id, std::size_t chunk_records);

  /// Encode the pending ring into a chunk and hand it to the writer.
  void flush();
  std::uint32_t tag_id(const char* tag);

  Writer* writer_;
  std::uint32_t id_;
  std::vector<RawRecord> ring_;
  std::size_t fill_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t live_records_ = 0;
  std::uint64_t dropped_ = 0;
  const char* last_tag_ = nullptr;
  std::uint32_t last_tag_id_ = 0;
  /// Open-addressed identity hash (pointer keys, linear probing). Tag
  /// cardinality is the op-table size, far below kTagSlots, so the table
  /// never needs growing and probes stay short.
  static constexpr std::size_t kTagSlots = 1024;
  std::array<const char*, kTagSlots> tag_slot_key_{};
  std::array<std::uint32_t, kTagSlots> tag_slot_id_{};
  std::vector<std::string> tags_;
  std::vector<std::uint8_t> encode_buf_;
};

}  // namespace ncar::trace::stream
