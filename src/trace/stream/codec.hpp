#pragma once
// Stage-1 span record codec: delta prediction + XOR + varints.
//
// A RawRecord is the sink-side shape of one span: the Collector's doubles
// plus an interned tag id. encode_records turns a run of them into the
// compact byte form specified in format.hpp; decode_records is its exact
// inverse. Both are lossless on the IEEE-754 bit patterns — the offline
// converter reproduces the Chrome exporter's output byte for byte because
// the doubles it formats are the very bits that were charged.
//
// The predictor is the span-stream structure itself: a track's next span
// usually starts where the previous one ended (start == prev start +
// prev duration, computed in double arithmetic, deterministically), and
// op costs repeat bit-identically thanks to the per-CPU cost caches. Both
// XOR deltas are then zero and the whole record is three bytes; the
// second-stage LZ pack (lz.hpp) folds the op sequences that repeat from
// one timestep to the next.

#include <cstddef>
#include <cstdint>

#include "trace/category.hpp"

namespace ncar::trace::stream {

/// One span as staged in a sink ring: Collector ticks plus interned ids.
struct RawRecord {
  double start = 0;
  double duration = 0;
  std::uint32_t tag = 0;  ///< index into the owning track's tag table
  std::uint8_t category = 0;
};

/// Encode `n` records into `out` (caller provides at least
/// n * kMaxRecordBytes). Returns the bytes written. Prediction state
/// starts fresh, matching decode_records on a chunk boundary.
std::size_t encode_records(const RawRecord* records, std::size_t n,
                           std::uint8_t* out);

/// Decode exactly `n` records from `in[0..len)` into `out`. Returns false
/// when the buffer truncates mid-record, a varint is malformed, or fewer
/// than `len` bytes are consumed (trailing garbage).
bool decode_records(const std::uint8_t* in, std::size_t len, std::size_t n,
                    RawRecord* out);

}  // namespace ncar::trace::stream
