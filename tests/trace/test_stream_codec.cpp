// Property tests for the .sxt stage-1 record codec, the LEB128 varints it
// is built on, and the optional LZ stage: encode/decode must round-trip
// every well-formed input bit-exactly, and the decoders must reject
// truncated or corrupt payloads instead of reading or writing past them.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "trace/stream/codec.hpp"
#include "trace/stream/format.hpp"
#include "trace/stream/lz.hpp"
#include "trace/stream/varint.hpp"

namespace {

using namespace ncar::trace::stream;
using RawRecords = std::vector<RawRecord>;

std::uint64_t varint_roundtrip(std::uint64_t v, std::size_t* bytes = nullptr) {
  std::uint8_t buf[kMaxVarintBytes];
  const std::size_t len = put_varint(buf, v);
  if (bytes != nullptr) *bytes = len;
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_TRUE(get_varint(buf, len, pos, out));
  EXPECT_EQ(pos, len);
  return out;
}

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : cases) {
    std::size_t len = 0;
    EXPECT_EQ(varint_roundtrip(v, &len), v);
    EXPECT_LE(len, kMaxVarintBytes);
  }
  std::size_t len = 0;
  varint_roundtrip(std::numeric_limits<std::uint64_t>::max(), &len);
  EXPECT_EQ(len, kMaxVarintBytes);
}

TEST(Varint, RoundTripsRandomValues) {
  std::mt19937_64 rng(0xC0DEC);
  for (int i = 0; i < 4000; ++i) {
    // Mix magnitudes: raw 64-bit draws rarely exercise short encodings.
    const int shift = static_cast<int>(rng() % 64);
    const std::uint64_t v = rng() >> shift;
    EXPECT_EQ(varint_roundtrip(v), v);
  }
}

TEST(Varint, RejectsTruncation) {
  std::uint8_t buf[kMaxVarintBytes];
  const std::size_t len = put_varint(buf, 1ull << 60);
  for (std::size_t cut = 0; cut < len; ++cut) {
    std::size_t pos = 0;
    std::uint64_t out = 0;
    EXPECT_FALSE(get_varint(buf, cut, pos, out)) << "cut " << cut;
  }
}

RawRecords decode_all(const std::vector<std::uint8_t>& bytes, std::size_t n) {
  RawRecords out(n);
  EXPECT_TRUE(decode_records(bytes.data(), bytes.size(), n, out.data()));
  return out;
}

void expect_roundtrip(const RawRecords& records) {
  std::vector<std::uint8_t> buf(records.size() * kMaxRecordBytes);
  const std::size_t len =
      encode_records(records.data(), records.size(), buf.data());
  ASSERT_LE(len, buf.size());
  buf.resize(len);
  const RawRecords back = decode_all(buf, records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i].start),
              std::bit_cast<std::uint64_t>(records[i].start))
        << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i].duration),
              std::bit_cast<std::uint64_t>(records[i].duration))
        << i;
    EXPECT_EQ(back[i].tag, records[i].tag) << i;
    EXPECT_EQ(back[i].category, records[i].category) << i;
  }
}

TEST(RecordCodec, PerfectlyPredictedStreamIsOneByteHeaderPerRecord) {
  // Contiguous spans of a repeated duration: start always equals the
  // previous end and the duration matches the per-tag predictor, so both
  // XOR residues are zero and each record costs 3 varint bytes (header +
  // two zero residues).
  RawRecords r;
  double t = 1000.0;
  for (int i = 0; i < 64; ++i) {
    r.push_back({t, 2.5, 3, 1});
    t += 2.5;
  }
  std::vector<std::uint8_t> buf(r.size() * kMaxRecordBytes);
  const std::size_t len = encode_records(r.data(), r.size(), buf.data());
  // First record pays full residues; the rest are 3 bytes each.
  EXPECT_LE(len, 3 * (r.size() - 1) + kMaxRecordBytes);
  expect_roundtrip(r);
}

TEST(RecordCodec, RoundTripsAdversarialValues) {
  const double specials[] = {0.0,
                             -0.0,
                             1.0,
                             -1.0,
                             1e308,
                             -1e308,
                             5e-324,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::epsilon()};
  RawRecords r;
  std::uint32_t tag = 0;
  std::uint8_t cat = 0;
  for (const double start : specials) {
    for (const double dur : specials) {
      r.push_back({start, dur, tag++ % 7, static_cast<std::uint8_t>(cat++ % 16)});
    }
  }
  expect_roundtrip(r);
}

TEST(RecordCodec, RoundTripsRandomNonMonotoneRecords) {
  std::mt19937_64 rng(0x5EED);
  std::uniform_real_distribution<double> u(-1e12, 1e12);
  RawRecords r;
  for (int i = 0; i < 4096; ++i) {
    r.push_back({u(rng), u(rng), static_cast<std::uint32_t>(rng() % 40),
                 static_cast<std::uint8_t>(rng() % 16)});
  }
  expect_roundtrip(r);
}

TEST(RecordCodec, RoundTripsTagsBeyondPredictionTable) {
  // Tag ids past the decoder's per-tag prediction bound fall back to a
  // zero predictor on both sides; the stream must still round-trip.
  RawRecords r;
  for (int i = 0; i < 100; ++i) {
    r.push_back({static_cast<double>(i), 1.5 + i,
                 4096 + static_cast<std::uint32_t>(i % 3) * 100000, 2});
  }
  expect_roundtrip(r);
}

TEST(RecordCodec, RejectsTruncatedPayload) {
  RawRecords r;
  for (int i = 0; i < 16; ++i) r.push_back({1.0 * i, 2.0, 1, 1});
  std::vector<std::uint8_t> buf(r.size() * kMaxRecordBytes);
  const std::size_t len = encode_records(r.data(), r.size(), buf.data());
  RawRecords out(r.size());
  EXPECT_FALSE(decode_records(buf.data(), len - 1, r.size(), out.data()));
  EXPECT_FALSE(decode_records(buf.data(), 0, r.size(), out.data()));
}

TEST(RecordCodec, RejectsTrailingGarbage) {
  RawRecords r{{1.0, 2.0, 1, 1}};
  std::vector<std::uint8_t> buf(kMaxRecordBytes + 1);
  const std::size_t len = encode_records(r.data(), 1, buf.data());
  buf[len] = 0x00;  // one stray byte after the last record
  RawRecord out;
  EXPECT_FALSE(decode_records(buf.data(), len + 1, 1, &out));
}

TEST(RecordCodec, RejectsTagOverflowingThirtyTwoBits) {
  // Header varint of (tag << 4) | category with tag > uint32 max.
  std::vector<std::uint8_t> buf(3 * kMaxVarintBytes);
  std::size_t pos = put_varint(buf.data(), (0x1'0000'0000ull << 4) | 1u);
  pos += put_varint(buf.data() + pos, 0);  // start residue
  pos += put_varint(buf.data() + pos, 0);  // duration residue
  RawRecord out;
  EXPECT_FALSE(decode_records(buf.data(), pos, 1, &out));
}

using Bytes = std::vector<std::uint8_t>;

Bytes unpack_or_die(const Bytes& packed, std::size_t raw_size) {
  Bytes out;
  EXPECT_TRUE(lz_unpack(packed.data(), packed.size(), raw_size, out));
  EXPECT_EQ(out.size(), raw_size);
  return out;
}

Bytes pack_or_die(const Bytes& raw) {
  Bytes packed;
  EXPECT_TRUE(lz_pack(raw.data(), raw.size(), packed));
  EXPECT_LT(packed.size(), raw.size());
  return packed;
}

/// Stage-1-like bytes: one op sequence repeated step after step, with a
/// few bytes (a changed residue, a new tag) differing per step.
Bytes repeated_steps(std::uint64_t seed, int steps) {
  std::mt19937_64 rng(seed);
  Bytes step;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t roll = rng() % 100;
    step.push_back(roll < 60 ? 0x00 : static_cast<std::uint8_t>(rng()));
  }
  Bytes raw;
  for (int s = 0; s < steps; ++s) {
    for (int k = 0; k < 3; ++k) {
      step[rng() % step.size()] = static_cast<std::uint8_t>(rng());
    }
    raw.insert(raw.end(), step.begin(), step.end());
  }
  return raw;
}

TEST(Lz, SingleValueRunIsOneOverlappingMatch) {
  const Bytes raw(1000, 0x7F);
  const Bytes packed = pack_or_die(raw);
  // One literal, then a distance-1 match copying its own output: the
  // literal count, the literal, a two-byte length and the distance.
  EXPECT_EQ(packed, (Bytes{1, 0x7F, 0xE3, 0x07, 1}));
  EXPECT_EQ(unpack_or_die(packed, raw.size()), raw);
}

TEST(Lz, RepeatedStepsRoundTripAndShrink) {
  const Bytes raw = repeated_steps(0xE27, 60);
  const Bytes packed = pack_or_die(raw);
  EXPECT_LT(packed.size() * 5, raw.size());
  EXPECT_EQ(unpack_or_die(packed, raw.size()), raw);
}

TEST(Lz, RefusesWhenNotStrictlySmaller) {
  std::mt19937_64 rng(0xFADE);
  Bytes raw;
  for (int i = 0; i < 4096; ++i) {
    raw.push_back(static_cast<std::uint8_t>(rng() & 0xFF));
  }
  Bytes packed;
  EXPECT_FALSE(lz_pack(raw.data(), raw.size(), packed));
  const Bytes tiny{1, 2, 3};
  EXPECT_FALSE(lz_pack(tiny.data(), tiny.size(), packed));
  EXPECT_FALSE(lz_pack(tiny.data(), 0, packed));
}

TEST(Lz, AllByteValuesAndLongRunsRoundTrip) {
  Bytes raw;
  for (int rep = 0; rep < 8; ++rep) {
    for (int b = 0; b < 256; ++b) raw.push_back(static_cast<std::uint8_t>(b));
    raw.insert(raw.end(), 5000 + rep, static_cast<std::uint8_t>(rep * 37));
  }
  for (int b = 255; b >= 0; --b) raw.push_back(static_cast<std::uint8_t>(b));
  EXPECT_EQ(unpack_or_die(pack_or_die(raw), raw.size()), raw);

  // Random lengths and alphabets: every input the packer accepts decodes
  // back exactly, including matches that start in the first bytes and
  // runs that end the chunk.
  std::mt19937_64 rng(0x1277);
  int packed_count = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = rng() % 3000;
    const std::uint64_t alphabet = 1 + rng() % 8;
    Bytes in;
    for (std::size_t i = 0; i < n; ++i) {
      in.push_back(static_cast<std::uint8_t>(0xF0 + rng() % alphabet));
    }
    Bytes packed;
    if (!lz_pack(in.data(), in.size(), packed)) continue;
    ++packed_count;
    EXPECT_EQ(unpack_or_die(packed, in.size()), in) << "trial " << trial;
  }
  EXPECT_GT(packed_count, 200);
}

TEST(Lz, PackingIsAPureFunctionOfTheChunk) {
  const Bytes a = repeated_steps(1, 40);
  const Bytes b = repeated_steps(2, 40);
  const Bytes first = pack_or_die(a);
  pack_or_die(b);  // leaves nothing behind for the next call to see
  EXPECT_EQ(pack_or_die(a), first);
}

TEST(Lz, RejectsCorruptTokens) {
  Bytes out;
  auto rejects = [&](const Bytes& packed, std::size_t raw_size) {
    return !lz_unpack(packed.data(), packed.size(), raw_size, out);
  };
  // The well-formed token the cases below damage: literal 'a', then a
  // four-byte distance-1 match.
  ASSERT_FALSE(rejects({1, 'a', 0, 1}, 5));
  EXPECT_EQ(out, Bytes(5, 'a'));

  EXPECT_TRUE(rejects({}, 5));                  // no token at all
  EXPECT_TRUE(rejects({0x81}, 5));              // truncated literal count
  EXPECT_TRUE(rejects({5, 'a', 'a'}, 5));       // truncated literal run
  EXPECT_TRUE(rejects({6, 'a', 'a', 'a', 'a', 'a', 'a'}, 5));  // overruns
  EXPECT_TRUE(rejects({1, 'a'}, 5));            // match token missing
  EXPECT_TRUE(rejects({1, 'a', 0x80}, 5));      // truncated match length
  EXPECT_TRUE(rejects({1, 'a', 0}, 5));         // distance missing
  EXPECT_TRUE(rejects({1, 'a', 0, 0}, 5));      // zero distance
  EXPECT_TRUE(rejects({1, 'a', 0, 2}, 5));      // distance before the start
  EXPECT_TRUE(rejects({1, 'a', 1, 1}, 5));      // match overruns raw_size
  EXPECT_TRUE(rejects({1, 'a', 0, 1}, 3));      // room for no match at all
  EXPECT_TRUE(rejects({1, 'a', 0, 1, 0}, 5));   // trailing byte
  EXPECT_TRUE(rejects({1, 'a', 0, 1}, 6));      // ends short of raw_size
  EXPECT_TRUE(rejects({0}, 0));                 // bytes for an empty chunk
  EXPECT_TRUE(rejects({0, 0, 1}, 5));           // match before any output

  // Every strict prefix of a real payload is rejected.
  const Bytes raw = repeated_steps(7, 20);
  const Bytes packed = pack_or_die(raw);
  for (std::size_t cut = 0; cut < packed.size(); ++cut) {
    const Bytes prefix(packed.begin(),
                       packed.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_TRUE(rejects(prefix, raw.size())) << "cut " << cut;
  }
}

}  // namespace
