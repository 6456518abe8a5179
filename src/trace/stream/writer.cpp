#include "trace/stream/writer.hpp"

#include <bit>
#include <filesystem>

#include "common/error.hpp"
#include "trace/stream/format.hpp"
#include "trace/stream/lz.hpp"
#include "trace/stream/varint.hpp"

namespace ncar::trace::stream {

namespace {

constexpr std::size_t kDefaultChunkRecords = 4096;

void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t scratch[kMaxVarintBytes];
  const std::size_t len = put_varint(scratch, v);
  out.insert(out.end(), scratch, scratch + len);
}

void append_string(std::vector<std::uint8_t>& out, const std::string& s) {
  append_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

void append_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * b)) & 0xFF));
  }
}

}  // namespace

std::unique_ptr<Writer> Writer::open(const std::string& path, Options opt) {
  NCAR_REQUIRE(opt.chunk_records <= kMaxChunkRecords,
               "chunk_records above kMaxChunkRecords");
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  if (p.has_parent_path()) fs::create_directories(p.parent_path(), ec);

  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out |
                              std::ios::trunc);
  if (!file.is_open()) return nullptr;

  const std::size_t chunk_records =
      opt.chunk_records != 0 ? opt.chunk_records : kDefaultChunkRecords;
  const bool pack = opt.pack != 0;
  return std::unique_ptr<Writer>(
      new Writer(path, std::move(file), chunk_records, pack));
}

Writer::Writer(const std::string& path, std::fstream file,
               std::size_t chunk_records, bool pack)
    : path_(path),
      file_(std::move(file)),
      chunk_records_(chunk_records),
      pack_(pack) {
  std::vector<std::uint8_t> header;
  header.insert(header.end(), kMagic, kMagic + 4);
  for (int b = 0; b < 4; ++b) {
    header.push_back(static_cast<std::uint8_t>((kVersion >> (8 * b)) & 0xFF));
  }
  append_u64_le(header, 0);  // reserved
  file_.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
  write_offset_ = header.size();
  if (!file_) failed_ = true;
}

Writer::~Writer() {
  if (!finalized_) finalize();
}

TrackSink& Writer::add_track(const TrackSpec& spec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  specs_.push_back(spec);
  const auto id = static_cast<std::uint32_t>(sinks_.size());
  sinks_.push_back(std::unique_ptr<TrackSink>(
      new TrackSink(this, id, chunk_records_)));
  return *sinks_.back();
}

namespace {

/// Compose a chunk header in place; returns its length.
std::size_t chunk_header(std::uint8_t* header, std::uint32_t track_id,
                         std::uint64_t epoch, std::uint64_t seq,
                         std::uint64_t record_count, std::uint8_t encoding,
                         std::uint64_t raw_bytes,
                         std::uint64_t payload_bytes) {
  std::size_t pos = 0;
  header[pos++] = kChunkMarker;
  pos += put_varint(header + pos, track_id);
  pos += put_varint(header + pos, epoch);
  pos += put_varint(header + pos, seq);
  pos += put_varint(header + pos, record_count);
  header[pos++] = encoding;
  pos += put_varint(header + pos, raw_bytes);
  pos += put_varint(header + pos, payload_bytes);
  return pos;
}

}  // namespace

bool Writer::append_chunk(std::uint32_t track_id, std::uint64_t epoch,
                          std::uint64_t seq, std::size_t record_count,
                          const std::uint8_t* payload,
                          std::size_t payload_bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (failed_ || finalized_) return false;

  std::uint8_t header[2 + 6 * kMaxVarintBytes];
  const std::size_t pos =
      chunk_header(header, track_id, epoch, seq, record_count, kEncodingRaw,
                   payload_bytes, payload_bytes);

  file_.seekp(static_cast<std::streamoff>(write_offset_));
  file_.write(reinterpret_cast<const char*>(header),
              static_cast<std::streamsize>(pos));
  file_.write(reinterpret_cast<const char*>(payload),
              static_cast<std::streamsize>(payload_bytes));
  if (!file_) {
    failed_ = true;
    return false;
  }
  index_.push_back({write_offset_, pos + payload_bytes, track_id, epoch, seq,
                    record_count, payload_bytes});
  write_offset_ += pos + payload_bytes;
  total_records_ += record_count;
  return true;
}

bool Writer::rewrite_stream(std::uint64_t& stream_end) {
  std::vector<ChunkIndexEntry> live;
  live.reserve(index_.size());
  for (const ChunkIndexEntry& e : index_) {
    if (e.epoch == sinks_[e.track_id]->epoch()) live.push_back(e);
  }
  std::uint64_t dst = 16;  // header: magic + version + reserved
  std::vector<std::uint8_t> chunk;
  std::vector<std::uint8_t> packed;
  std::uint8_t header[2 + 6 * kMaxVarintBytes];
  for (ChunkIndexEntry& e : live) {
    // A chunk moves when dead predecessors were dropped or it packs.
    bool rewrite = e.offset != dst;
    if (pack_ || rewrite) {
      chunk.resize(e.length);
      file_.seekg(static_cast<std::streamoff>(e.offset));
      file_.read(reinterpret_cast<char*>(chunk.data()),
                 static_cast<std::streamsize>(e.length));
      if (!file_) return false;
    }
    if (pack_ && lz_pack(chunk.data() + e.length - e.payload_bytes,
                         e.payload_bytes, packed)) {
      const std::size_t pos =
          chunk_header(header, e.track_id, e.epoch, e.seq, e.record_count,
                       kEncodingLz, e.payload_bytes, packed.size());
      chunk.assign(header, header + pos);
      chunk.insert(chunk.end(), packed.begin(), packed.end());
      e.payload_bytes = packed.size();
      rewrite = true;
    }
    if (rewrite) {
      file_.seekp(static_cast<std::streamoff>(dst));
      file_.write(reinterpret_cast<const char*>(chunk.data()),
                  static_cast<std::streamsize>(chunk.size()));
      if (!file_) return false;
      e.offset = dst;
      e.length = chunk.size();
    }
    dst += e.length;
  }
  stream_end = dst;
  stats_.chunks = live.size();
  total_payload_bytes_ = 0;
  for (const ChunkIndexEntry& e : live) total_payload_bytes_ += e.payload_bytes;
  index_ = std::move(live);
  return true;
}

bool Writer::finalize() {
  for (const std::unique_ptr<TrackSink>& sink : sinks_) sink->flush();

  const std::lock_guard<std::mutex> lock(mutex_);
  if (finalized_) return !failed_;
  finalized_ = true;

  std::uint64_t stream_end = write_offset_;
  if (!failed_ && !rewrite_stream(stream_end)) failed_ = true;

  std::vector<std::uint8_t> tail;
  tail.push_back(kEndMarker);
  append_varint(tail, specs_.size());
  stats_.events = 0;
  stats_.dropped = 0;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const TrackSpec& spec = specs_[i];
    const TrackSink& sink = *sinks_[i];
    append_varint(tail, static_cast<std::uint64_t>(spec.pid));
    append_varint(tail, static_cast<std::uint64_t>(spec.tid));
    append_string(tail, spec.process_name);
    append_string(tail, spec.thread_name);
    append_u64_le(tail, std::bit_cast<std::uint64_t>(spec.seconds_per_tick));
    tail.push_back(spec.skip_if_empty ? kFlagSkipIfEmpty : 0);
    append_varint(tail, sink.epoch());
    append_varint(tail, sink.live_records());
    append_varint(tail, sink.dropped());
    append_varint(tail, spec.max_spans);
    append_varint(tail, sink.tags().size());
    for (const std::string& tag : sink.tags()) append_string(tail, tag);
    stats_.events += sink.live_records();
    stats_.dropped += sink.dropped();
  }
  append_varint(tail, stats_.chunks);
  append_varint(tail, total_records_);
  append_varint(tail, total_payload_bytes_);
  tail.insert(tail.end(), kTrailer, kTrailer + 4);

  if (!failed_) {
    file_.seekp(static_cast<std::streamoff>(stream_end));
    file_.write(reinterpret_cast<const char*>(tail.data()),
                static_cast<std::streamsize>(tail.size()));
    file_.flush();
    if (!file_) failed_ = true;
  }
  file_.close();

  const std::uint64_t final_size = stream_end + tail.size();
  if (!failed_) {
    std::error_code ec;
    std::filesystem::resize_file(path_, final_size, ec);
    if (ec) failed_ = true;
  }
  stats_.file_bytes = final_size;
  return !failed_;
}

}  // namespace ncar::trace::stream
