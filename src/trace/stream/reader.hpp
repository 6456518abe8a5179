#pragma once
// Reader — offline parser for .sxt files (format.hpp, version 2).
//
// Strict by design: any structural damage — truncation, a bad marker, a
// corrupt LZ stream, a chunk header over the size caps, a record count
// that disagrees with the footer — raises FormatError with a stable
// "sxt: ..." message that tools print verbatim and tests assert on. The parser never guesses: a file either
// reproduces the writer's state exactly or is rejected.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/stream/codec.hpp"

namespace ncar::trace::stream {

class FormatError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// One track reassembled from the chunk stream and the footer. `spans`
/// holds only the final epoch, in record order.
struct TrackData {
  int pid = 0;
  int tid = 0;
  std::string process_name;
  std::string thread_name;
  double seconds_per_tick = 1.0;
  bool skip_if_empty = false;
  std::uint64_t final_epoch = 0;
  std::uint64_t dropped = 0;
  std::uint64_t max_spans = 0;
  std::vector<std::string> tags;
  std::vector<RawRecord> spans;
};

struct FileStats {
  std::uint64_t total_chunks = 0;
  std::uint64_t total_records = 0;  ///< all epochs, pre-compaction count
  std::uint64_t total_payload_bytes = 0;
  std::uint64_t file_bytes = 0;
};

struct SxtFile {
  std::vector<TrackData> tracks;
  FileStats stats;
};

/// Parse an in-memory .sxt image. Throws FormatError on any defect.
SxtFile parse_sxt(const std::uint8_t* data, std::size_t len);

/// Read and parse a .sxt file. Throws FormatError on I/O or format errors.
SxtFile read_sxt_file(const std::string& path);

}  // namespace ncar::trace::stream
