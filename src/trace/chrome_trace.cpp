#include "trace/chrome_trace.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace ncar::trace {

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan; traces never do
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

namespace {

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void write_metadata(std::ostream& os, const char* kind, int pid, int tid,
                    std::string_view name, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":")" << kind << R"(","ph":"M","pid":)" << pid
     << R"(,"tid":)" << tid << R"(,"args":{"name":)";
  write_escaped(os, name);
  os << "}}";
}

/// Spans past the track's cap, which the export leaves out.
std::uint64_t capped_drops(const stream::TrackData& t) {
  const std::uint64_t n = t.spans.size();
  return n > t.max_spans ? n - t.max_spans : 0;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const stream::SxtFile& file) {
  std::vector<const stream::TrackData*> tracks;
  for (const stream::TrackData& t : file.tracks) {
    if (!(t.skip_if_empty && t.spans.empty())) tracks.push_back(&t);
  }

  os << "{\"traceEvents\":[\n";
  bool first = true;

  // Metadata: one process_name per distinct pid (first track wins), one
  // thread_name per track, plus a truncation marker on any track that lost
  // spans to the cap or to sink drops.
  int last_named_pid = -1;
  for (const stream::TrackData* t : tracks) {
    if (t->pid != last_named_pid) {
      write_metadata(os, "process_name", t->pid, 0, t->process_name, first);
      last_named_pid = t->pid;
    }
    write_metadata(os, "thread_name", t->pid, t->tid, t->thread_name, first);
    const std::uint64_t dropped = t->dropped + capped_drops(*t);
    if (dropped > 0) {
      if (!first) os << ",\n";
      first = false;
      os << R"({"name":"trace_dropped_spans","ph":"M","pid":)" << t->pid
         << R"(,"tid":)" << t->tid << R"(,"args":{"dropped":)" << dropped
         << R"(,"max_spans":)" << t->max_spans << "}}";
    }
  }

  for (const stream::TrackData* t : tracks) {
    const double to_us = t->seconds_per_tick * 1e6;
    const std::size_t kept = t->spans.size() - capped_drops(*t);
    for (std::size_t i = 0; i < kept; ++i) {
      const stream::RawRecord& s = t->spans[i];
      if (!first) os << ",\n";
      first = false;
      os << R"({"name":)";
      write_escaped(os, t->tags[s.tag]);
      os << R"(,"cat":")" << to_string(static_cast<Category>(s.category))
         << R"(","ph":"X","ts":)" << format_double(s.start * to_us)
         << R"(,"dur":)" << format_double(s.duration * to_us)
         << R"(,"pid":)" << t->pid << R"(,"tid":)" << t->tid << '}';
    }
  }
  os << "\n]}\n";
}

void convert_sxt_file(const std::string& sxt_path,
                      const std::string& json_path) {
  const stream::SxtFile file = stream::read_sxt_file(sxt_path);
  std::ofstream out(json_path, std::ios::binary);
  if (!out.is_open()) throw std::runtime_error("cannot open " + json_path);
  write_chrome_trace(out, file);
  out.flush();
  if (!out) throw std::runtime_error("write failed: " + json_path);
}

}  // namespace ncar::trace
