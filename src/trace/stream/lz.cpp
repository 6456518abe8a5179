#include "trace/stream/lz.hpp"

#include <cstring>

#include "trace/stream/varint.hpp"

namespace ncar::trace::stream {

namespace {

constexpr int kHashLog = 14;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t scratch[kMaxVarintBytes];
  out.insert(out.end(), scratch, scratch + put_varint(scratch, v));
}

}  // namespace

bool lz_pack(const std::uint8_t* data, std::size_t n,
             std::vector<std::uint8_t>& out) {
  out.clear();
  if (n >= UINT32_MAX) return false;
  // head[h]: 1 + the latest position whose next four bytes hash to h.
  std::vector<std::uint32_t> head(std::size_t{1} << kHashLog, 0);
  std::size_t lit = 0;  // start of the pending literal run
  for (std::size_t i = 0; i + kLzMinMatch <= n;) {
    const std::uint32_t v = load32(data + i);
    std::uint32_t& slot = head[(v * 2654435761u) >> (32 - kHashLog)];
    const std::size_t from = slot - std::size_t{1};
    const bool hit = slot != 0 && load32(data + from) == v;
    slot = static_cast<std::uint32_t>(i + 1);
    if (!hit) {
      ++i;
      continue;
    }
    std::size_t len = kLzMinMatch;
    while (i + len < n && data[from + len] == data[i + len]) ++len;
    append_varint(out, i - lit);
    out.insert(out.end(), data + lit, data + i);
    append_varint(out, len - kLzMinMatch);
    append_varint(out, i - from);
    i += len;
    lit = i;
  }
  if (lit < n) {
    append_varint(out, n - lit);
    out.insert(out.end(), data + lit, data + n);
  }
  return out.size() < n;
}

bool lz_unpack(const std::uint8_t* data, std::size_t n, std::size_t raw_size,
               std::vector<std::uint8_t>& out) {
  out.resize(raw_size);
  std::size_t pos = 0;
  std::size_t o = 0;
  while (o < raw_size) {
    std::uint64_t lits = 0;
    if (!get_varint(data, n, pos, lits) || lits > raw_size - o ||
        lits > n - pos) {
      return false;
    }
    if (lits != 0) std::memcpy(out.data() + o, data + pos, lits);
    pos += lits;
    o += lits;
    if (o == raw_size) break;

    std::uint64_t extra = 0;
    std::uint64_t dist = 0;
    if (!get_varint(data, n, pos, extra) || raw_size - o < kLzMinMatch ||
        extra > raw_size - o - kLzMinMatch ||
        !get_varint(data, n, pos, dist) || dist == 0 || dist > o) {
      return false;
    }
    const std::size_t len = static_cast<std::size_t>(extra) + kLzMinMatch;
    std::uint8_t* dst = out.data() + o;
    const std::uint8_t* src = dst - dist;
    if (dist >= len) {
      std::memcpy(dst, src, len);
    } else {
      for (std::size_t k = 0; k < len; ++k) dst[k] = src[k];  // overlapping
    }
    o += len;
  }
  return pos == n;
}

}  // namespace ncar::trace::stream
