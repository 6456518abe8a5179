#pragma once
// Greedy LZ match stage — the optional second compression stage of .sxt
// chunks. The simulated models repeat whole op sequences timestep after
// timestep, so a chunk's stage-1 bytes (codec.hpp) repeat in long runs at
// fixed distances: a match stage sees that, an order-0 byte coder cannot.
//
// Packed form, with no entropy coding after it: tokens of
//   varint literal_count, the literal bytes,
//   varint match_length - kLzMinMatch, varint distance (1..bytes so far)
// where a match copies from `distance` bytes back and may overlap its own
// output (distance 1 repeats one byte). The last token ends after its
// literals when they complete the chunk.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ncar::trace::stream {

/// Shortest match the encoder emits; lengths are stored relative to it.
inline constexpr std::size_t kLzMinMatch = 4;

/// Pack `n` bytes of `data` into `out`. Returns false (leaving `out`
/// unspecified) unless the packed form is strictly smaller, so callers
/// store the raw bytes instead. The match table starts empty on every
/// call: packed bytes are a pure function of the input.
bool lz_pack(const std::uint8_t* data, std::size_t n,
             std::vector<std::uint8_t>& out);

/// Decode `n` packed bytes into exactly `raw_size` bytes in `out`. Returns
/// false, never writing past `raw_size`, on a truncated varint or literal
/// run, a zero or out-of-range distance, a token overrunning `raw_size`,
/// or bytes left after the last token.
bool lz_unpack(const std::uint8_t* data, std::size_t n, std::size_t raw_size,
               std::vector<std::uint8_t>& out);

}  // namespace ncar::trace::stream
