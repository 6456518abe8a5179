#pragma once
// The .sxt binary streaming trace format, version 2.
//
// One file = one traced run. Layout (all integers are LEB128 varints from
// varint.hpp unless noted; byte order of fixed fields is little-endian):
//
//   [header]   magic "SXT1" (4 bytes), u32 version = 2, u64 reserved = 0
//   [chunk]*   a 0x01 marker byte, then
//                varint track_id      index into the footer's track table
//                varint epoch         Collector::reset generation; only the
//                                     final epoch of a track is live
//                varint seq           per-track chunk counter (monotone)
//                varint record_count  spans encoded in this chunk, at
//                                     most kMaxChunkRecords
//                u8     encoding      0 = raw stage-1 bytes, 1 = LZ-packed
//                                     (lz.hpp; only when strictly smaller)
//                varint raw_bytes     stage-1 size (what decoding yields),
//                                     at most record_count * kMaxRecordBytes
//                varint payload_bytes bytes that follow
//                payload...
//   [end]      a single 0x00 marker byte
//   [footer]   varint track_count, then per track:
//                varint pid, varint tid
//                varint len + process_name bytes
//                varint len + thread_name bytes
//                u64    seconds_per_tick as raw IEEE-754 bits
//                u8     flags (bit 0: skip track when it has no spans —
//                       the Chrome exporter's empty-CPU-track rule)
//                varint final_epoch
//                varint live_records  records in the final epoch
//                varint dropped       spans the sink had to discard
//                varint max_spans     the Chrome export's span cap
//                varint tag_count, then per tag: varint len + bytes
//              then varint total_chunks, varint total_records (all
//              epochs), varint total_payload_bytes
//   [trailer]  magic "SXTE" (4 bytes)
//
// Record payload (stage 1, before the optional LZ pack): per record
//   varint header       (tag_id << 4) | category   — kCategoryCount <= 16
//   varint start_xor    IEEE bits of start XOR bits of the predicted
//                       start (previous start + previous duration; 0.0
//                       for the first record of a chunk). A contiguous
//                       span stream encodes as a single 0x00.
//   varint duration_xor IEEE bits of duration XOR the last duration seen
//                       for the SAME tag id in this chunk (0.0 before its
//                       first record). Op costs repeat bit-identically
//                       across timesteps (per-CPU cost caches), so a
//                       repeating op stream encodes its durations as
//                       single 0x00 bytes. Tag ids >= 4096 always
//                       predict 0.0 — a decoder memory bound.
// Prediction state resets at every chunk boundary so chunks decode
// independently of one another.
//
// Versioning and forward compatibility: the header version is bumped on
// any layout change; readers reject versions they do not know
// ("sxt: unsupported version") rather than guessing. Unknown footer flag
// bits are reserved-zero and readers must ignore them. Drop
// semantics: a sink that cannot hand records to the writer (the file write
// failed) counts the spans in `dropped` instead of blocking the charge
// path. The file keeps every span it was handed; the Chrome export keeps
// the first max_spans of each track and surfaces both counts as metadata.
//
// Chunk order follows host flush order: tracks fill their rings at
// different rates and, under threaded host execution, hand chunks to the
// writer in whatever order the ranks reach them. The same run can
// therefore produce differently ordered (and differently hashed) files,
// while the decoded per-track spans and the converted JSON are
// byte-identical.

#include <cstddef>
#include <cstdint>

#include "trace/category.hpp"

namespace ncar::trace::stream {

static_assert(kCategoryCount <= 16,
              "record header packs the category into four bits");

inline constexpr char kMagic[4] = {'S', 'X', 'T', '1'};
inline constexpr char kTrailer[4] = {'S', 'X', 'T', 'E'};
inline constexpr std::uint32_t kVersion = 2;

inline constexpr std::uint8_t kChunkMarker = 0x01;
inline constexpr std::uint8_t kEndMarker = 0x00;

inline constexpr std::uint8_t kEncodingRaw = 0;
inline constexpr std::uint8_t kEncodingLz = 1;

/// Track-table flags (footer).
inline constexpr std::uint8_t kFlagSkipIfEmpty = 0x01;

/// Worst-case stage-1 bytes per record: three maximal varints.
inline constexpr std::size_t kMaxRecordBytes = 30;

/// Most records one chunk may hold. The writer refuses larger rings and
/// the reader refuses chunk headers that claim more, so a damaged header
/// cannot make the reader allocate beyond kMaxChunkRecords records and
/// kMaxChunkRecords * kMaxRecordBytes stage-1 bytes.
inline constexpr std::size_t kMaxChunkRecords = 65536;

}  // namespace ncar::trace::stream
