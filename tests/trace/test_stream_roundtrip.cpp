// Writer → .sxt file → reader round-trip tests, plus the strict-rejection
// contract: a corrupt or truncated file raises FormatError with a stable
// "sxt: ..." message, never a partial parse.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "trace/category.hpp"
#include "trace/stream/format.hpp"
#include "trace/stream/reader.hpp"
#include "trace/stream/varint.hpp"
#include "trace/stream/writer.hpp"

namespace {

using namespace ncar::trace::stream;
using ncar::trace::Category;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

Writer::TrackSpec spec(int pid, int tid, const char* process,
                       const char* thread, double tick, bool skip) {
  Writer::TrackSpec s;
  s.pid = pid;
  s.tid = tid;
  s.process_name = process;
  s.thread_name = thread;
  s.seconds_per_tick = tick;
  s.skip_if_empty = skip;
  s.max_spans = 1u << 20;
  return s;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::uint8_t> bytes;
  in.seekg(0, std::ios::end);
  bytes.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& message) {
  try {
    parse_sxt(bytes.data(), bytes.size());
    FAIL() << "parse accepted a corrupt file (wanted: " << message << ")";
  } catch (const FormatError& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

/// Walk the first chunk's header with the same varint reader the parser
/// uses; returns positions needed by the corruption tests.
struct ChunkLayout {
  std::size_t encoding_pos = 0;
  std::size_t payload_pos = 0;
  std::size_t payload_bytes = 0;
};

ChunkLayout first_chunk_layout(const std::vector<std::uint8_t>& bytes) {
  ChunkLayout out;
  std::size_t pos = 16;
  EXPECT_EQ(bytes.at(pos), kChunkMarker);
  ++pos;
  std::uint64_t v = 0;
  for (int field = 0; field < 4; ++field) {  // track, epoch, seq, count
    EXPECT_TRUE(get_varint(bytes.data(), bytes.size(), pos, v));
  }
  out.encoding_pos = pos++;
  EXPECT_TRUE(get_varint(bytes.data(), bytes.size(), pos, v));  // raw_bytes
  EXPECT_TRUE(get_varint(bytes.data(), bytes.size(), pos, v));
  out.payload_pos = pos;
  out.payload_bytes = static_cast<std::size_t>(v);
  return out;
}

TEST(StreamRoundTrip, SpansSpecsAndTagsSurvive) {
  const std::string path = temp_path("roundtrip.sxt");
  Writer::Options opt;
  opt.chunk_records = 16;  // force several chunk flushes
  opt.pack = 0;
  auto writer = Writer::open(path, opt);
  ASSERT_NE(writer, nullptr);

  TrackSink& runtime = writer->add_track(
      spec(7, 0, "node0", "runtime", 8e-9, /*skip=*/false));
  TrackSink& cpu = writer->add_track(
      spec(7, 1, "node0", "cpu0", 9.2e-9, /*skip=*/true));

  std::vector<RawRecord> expect_cpu;
  double t = 0.0;
  const char* tags[] = {"saxpy", "fft", "gather"};
  for (int i = 0; i < 100; ++i) {
    const double dur = 10.0 + (i % 3);
    const auto c = static_cast<Category>(i % ncar::trace::kCategoryCount);
    cpu.record(c, t, dur, tags[i % 3]);
    expect_cpu.push_back({t, dur, static_cast<std::uint32_t>(i % 3),
                          static_cast<std::uint8_t>(c)});
    t += dur;
  }
  runtime.record(Category::Barrier, 5.0, 2.0, "barrier");
  ASSERT_TRUE(writer->finalize());
  EXPECT_EQ(writer->stats().events, 101u);
  EXPECT_EQ(writer->stats().dropped, 0u);

  const SxtFile file = read_sxt_file(path);
  ASSERT_EQ(file.tracks.size(), 2u);

  const TrackData& rt = file.tracks[0];
  EXPECT_EQ(rt.pid, 7);
  EXPECT_EQ(rt.tid, 0);
  EXPECT_EQ(rt.process_name, "node0");
  EXPECT_EQ(rt.thread_name, "runtime");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rt.seconds_per_tick),
            std::bit_cast<std::uint64_t>(8e-9));
  EXPECT_FALSE(rt.skip_if_empty);
  EXPECT_EQ(rt.max_spans, 1u << 20);
  ASSERT_EQ(rt.spans.size(), 1u);
  EXPECT_EQ(rt.tags.at(rt.spans[0].tag), "barrier");

  const TrackData& cp = file.tracks[1];
  EXPECT_TRUE(cp.skip_if_empty);
  ASSERT_EQ(cp.tags.size(), 3u);
  EXPECT_EQ(cp.tags[0], "saxpy");
  EXPECT_EQ(cp.tags[1], "fft");
  EXPECT_EQ(cp.tags[2], "gather");
  ASSERT_EQ(cp.spans.size(), expect_cpu.size());
  for (std::size_t i = 0; i < expect_cpu.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cp.spans[i].start),
              std::bit_cast<std::uint64_t>(expect_cpu[i].start));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cp.spans[i].duration),
              std::bit_cast<std::uint64_t>(expect_cpu[i].duration));
    EXPECT_EQ(cp.spans[i].tag, expect_cpu[i].tag);
    EXPECT_EQ(cp.spans[i].category, expect_cpu[i].category);
  }
  EXPECT_EQ(file.stats.file_bytes, writer->stats().file_bytes);
}

TEST(StreamRoundTrip, ResetCompactsDeadEpochs) {
  const std::string path = temp_path("epochs.sxt");
  Writer::Options opt;
  opt.chunk_records = 16;
  opt.pack = 0;
  auto writer = Writer::open(path, opt);
  ASSERT_NE(writer, nullptr);
  TrackSink& sink =
      writer->add_track(spec(1, 0, "node0", "cpu0", 8e-9, true));

  // 40 spans: two full chunks hit the file, 8 stay in the ring and are
  // abandoned by the reset, exactly like Collector::reset discards its
  // in-memory buffer.
  for (int i = 0; i < 40; ++i) {
    sink.record(Category::Scalar, i * 1.0, 1.0, "warmup");
  }
  sink.on_reset();
  EXPECT_EQ(sink.epoch(), 1u);
  EXPECT_EQ(sink.live_records(), 0u);
  for (int i = 0; i < 7; ++i) {
    sink.record(Category::VectorAdd, 100.0 + i, 2.0, "steady");
  }
  ASSERT_TRUE(writer->finalize());
  EXPECT_EQ(writer->stats().events, 7u);

  const SxtFile file = read_sxt_file(path);
  ASSERT_EQ(file.tracks.size(), 1u);
  const TrackData& track = file.tracks[0];
  EXPECT_EQ(track.final_epoch, 1u);
  ASSERT_EQ(track.spans.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(track.spans[i].start, 100.0 + static_cast<double>(i));
    EXPECT_EQ(track.tags.at(track.spans[i].tag), "steady");
  }
  // The dead-epoch chunks were rewritten away, not just skipped: every
  // chunk still in the file carries the final epoch.
  EXPECT_EQ(file.stats.total_chunks, writer->stats().chunks);
  const auto bytes = file_bytes(path);
  std::size_t count = 0;
  for (std::size_t p = 16; p < bytes.size() && bytes[p] == kChunkMarker;) {
    std::uint64_t v = 0;
    ++p;
    get_varint(bytes.data(), bytes.size(), p, v);  // track
    get_varint(bytes.data(), bytes.size(), p, v);  // epoch
    EXPECT_EQ(v, 1u) << "dead-epoch chunk survived finalize";
    get_varint(bytes.data(), bytes.size(), p, v);  // seq
    get_varint(bytes.data(), bytes.size(), p, v);  // record count
    ++p;                                           // encoding
    get_varint(bytes.data(), bytes.size(), p, v);  // raw bytes
    get_varint(bytes.data(), bytes.size(), p, v);  // payload bytes
    p += static_cast<std::size_t>(v);
    ++count;
  }
  EXPECT_EQ(count, file.stats.total_chunks);
}

TEST(StreamRoundTrip, PackedAndRawFilesParseIdentically) {
  Writer::Options raw_opt;
  raw_opt.chunk_records = 512;
  raw_opt.pack = 0;
  Writer::Options pack_opt = raw_opt;
  pack_opt.pack = 1;
  const std::string raw_path = temp_path("pack_off.sxt");
  const std::string pack_path = temp_path("pack_on.sxt");

  for (const auto& [path, opt] :
       {std::pair{raw_path, raw_opt}, std::pair{pack_path, pack_opt}}) {
    auto writer = Writer::open(path, opt);
    ASSERT_NE(writer, nullptr);
    TrackSink& sink =
        writer->add_track(spec(1, 0, "node0", "cpu0", 8e-9, true));
    double t = 0.0;
    for (int i = 0; i < 2000; ++i) {
      // Contiguous, repetitive: stage-1 bytes repeat every four records,
      // so the LZ stage engages on every full chunk.
      const double dur = (i % 4 == 0) ? 3.5 : 1.25;
      sink.record(i % 2 ? Category::VectorMul : Category::VectorAdd, t, dur,
                  i % 2 ? "mul8" : "add8");
      t += dur;
    }
    ASSERT_TRUE(writer->finalize());
  }

  const SxtFile raw_file = read_sxt_file(raw_path);
  const SxtFile pack_file = read_sxt_file(pack_path);
  EXPECT_LT(pack_file.stats.file_bytes, raw_file.stats.file_bytes);
  ASSERT_EQ(pack_file.tracks.size(), raw_file.tracks.size());
  const TrackData& a = raw_file.tracks[0];
  const TrackData& b = pack_file.tracks[0];
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.spans[i].start),
              std::bit_cast<std::uint64_t>(b.spans[i].start));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.spans[i].duration),
              std::bit_cast<std::uint64_t>(b.spans[i].duration));
    EXPECT_EQ(a.spans[i].tag, b.spans[i].tag);
    EXPECT_EQ(a.spans[i].category, b.spans[i].category);
  }
  EXPECT_EQ(a.tags, b.tags);

  // At least one chunk in the packed file actually used the LZ encoding
  // (otherwise the size comparison above proved nothing).
  const auto bytes = file_bytes(pack_path);
  EXPECT_EQ(bytes[first_chunk_layout(bytes).encoding_pos], kEncodingLz);
}

std::vector<std::uint8_t> small_valid_file(const std::string& path) {
  Writer::Options opt;
  opt.chunk_records = 4;
  opt.pack = 0;
  auto writer = Writer::open(path, opt);
  TrackSink& sink = writer->add_track({});
  for (int i = 0; i < 4; ++i) {
    sink.record(Category::Scalar, i * 1.0, 0.5, "op");
  }
  writer->finalize();
  return file_bytes(path);
}

TEST(StreamReject, StructuralDamageRaisesExactErrors) {
  const auto good = small_valid_file(temp_path("victim.sxt"));
  ASSERT_NO_THROW(parse_sxt(good.data(), good.size()));

  std::vector<std::uint8_t> tiny(good.begin(), good.begin() + 10);
  expect_rejected(tiny, "sxt: file too small");

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  expect_rejected(bad_magic, "sxt: bad magic");

  auto bad_version = good;
  bad_version[4] = 99;
  expect_rejected(bad_version, "sxt: unsupported version");
  bad_version[4] = 1;  // version 1 meant tANS by encoding 1, not LZ
  expect_rejected(bad_version, "sxt: unsupported version");

  const std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
  expect_rejected(truncated, "sxt: missing trailer");

  auto bad_marker = good;
  bad_marker[16] = 0x77;
  expect_rejected(bad_marker, "sxt: bad section marker");

  const ChunkLayout layout = first_chunk_layout(good);
  auto bad_encoding = good;
  bad_encoding[layout.encoding_pos] = 9;
  expect_rejected(bad_encoding, "sxt: bad chunk encoding");

  // Setting the continuation bit on the payload's last byte leaves the
  // final varint unterminated: stage-1 decode must fail, not run on.
  auto bad_payload = good;
  bad_payload[layout.payload_pos + layout.payload_bytes - 1] |= 0x80;
  expect_rejected(bad_payload, "sxt: record payload corrupt");
}

/// A hand-built file: the current header, one chunk header with the given
/// fields, `payload` filler bytes and the trailer (no footer).
std::vector<std::uint8_t> fake_chunk_file(std::uint64_t track_id,
                                          std::uint64_t record_count,
                                          std::uint64_t raw_bytes,
                                          std::uint64_t payload_bytes,
                                          std::size_t payload) {
  std::vector<std::uint8_t> fake(kMagic, kMagic + 4);
  for (int b = 0; b < 4; ++b) {
    fake.push_back(static_cast<std::uint8_t>(kVersion >> (8 * b)));
  }
  fake.insert(fake.end(), 8, 0x00);  // reserved
  fake.push_back(kChunkMarker);
  std::uint8_t scratch[kMaxVarintBytes];
  for (const std::uint64_t v : {track_id, std::uint64_t{0},
                                std::uint64_t{0}, record_count}) {
    fake.insert(fake.end(), scratch, scratch + put_varint(scratch, v));
  }
  fake.push_back(kEncodingRaw);
  for (const std::uint64_t v : {raw_bytes, payload_bytes}) {
    fake.insert(fake.end(), scratch, scratch + put_varint(scratch, v));
  }
  fake.insert(fake.end(), payload, 0x00);
  fake.insert(fake.end(), kTrailer, kTrailer + 4);
  return fake;
}

TEST(StreamReject, OversizedCountsRaiseExactErrors) {
  // Chunk headers are checked against the caps before anything is sized
  // from them: a claim of 2^60 records must not reach an allocation.
  expect_rejected(fake_chunk_file(0, 1ull << 60, 0, 0, 8),
                  "sxt: chunk record count over limit");
  expect_rejected(fake_chunk_file(0, kMaxChunkRecords + 1, 0, 0, 8),
                  "sxt: chunk record count over limit");
  expect_rejected(fake_chunk_file(0, 4, 4 * kMaxRecordBytes + 1, 0, 8),
                  "sxt: chunk raw size over limit");
  expect_rejected(fake_chunk_file(0, 1, 1ull << 40, 0, 8),
                  "sxt: chunk raw size over limit");
  expect_rejected(fake_chunk_file(1ull << 40, 4, 8, 8, 8),
                  "sxt: chunk for unknown track");

  // Likewise a footer claiming 2^40 tracks.
  const auto good = small_valid_file(temp_path("footer_victim.sxt"));
  const ChunkLayout layout = first_chunk_layout(good);
  const std::size_t footer = layout.payload_pos + layout.payload_bytes + 1;
  ASSERT_EQ(good.at(footer), 1u);  // one-byte track count
  std::vector<std::uint8_t> many_tracks(good.begin(),
                                        good.begin() + footer);
  std::uint8_t scratch[kMaxVarintBytes];
  many_tracks.insert(many_tracks.end(), scratch,
                     scratch + put_varint(scratch, 1ull << 40));
  many_tracks.insert(many_tracks.end(), good.begin() + footer + 1, good.end());
  expect_rejected(many_tracks, "sxt: truncated footer");

  // The writer refuses rings the reader would refuse.
  Writer::Options opt;
  opt.chunk_records = kMaxChunkRecords + 1;
  EXPECT_THROW(Writer::open(temp_path("oversized.sxt"), opt),
               ncar::precondition_error);
  opt.chunk_records = kMaxChunkRecords;
  EXPECT_NE(Writer::open(temp_path("max_chunk.sxt"), opt), nullptr);
}

TEST(StreamReject, TruncatedChunkPayloadAndCorruptEntropy) {
  // Hand-built file whose chunk claims more payload than the file holds.
  expect_rejected(fake_chunk_file(0, 10, 200, 200, 8),
                  "sxt: truncated chunk payload");

  // A real packed file whose first token claims more literals than the
  // payload holds: the LZ decoder must reject, not emit garbage records.
  const std::string path = temp_path("lz_victim.sxt");
  Writer::Options opt;
  opt.chunk_records = 512;
  opt.pack = 1;
  auto writer = Writer::open(path, opt);
  TrackSink& sink = writer->add_track({});
  for (int i = 0; i < 512; ++i) {
    sink.record(Category::Scalar, i * 1.0, 1.0, "op");
  }
  ASSERT_TRUE(writer->finalize());
  auto bytes = file_bytes(path);
  const ChunkLayout layout = first_chunk_layout(bytes);
  ASSERT_EQ(bytes[layout.encoding_pos], kEncodingLz);
  ASSERT_LT(layout.payload_bytes, 0x7Fu);
  bytes[layout.payload_pos] = 0x7F;
  expect_rejected(bytes, "sxt: lz payload corrupt");
}

TEST(StreamReject, MissingFileReportsPath) {
  const std::string path = temp_path("does_not_exist.sxt");
  try {
    read_sxt_file(path);
    FAIL() << "read_sxt_file accepted a missing file";
  } catch (const FormatError& e) {
    EXPECT_EQ(std::string(e.what()), "sxt: cannot open " + path);
  }
}

}  // namespace
