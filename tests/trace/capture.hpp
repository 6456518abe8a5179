#pragma once
// Shared helpers for the trace tests. A Collector keeps no spans itself:
// spans only exist once they have gone through a stream::Writer. So the
// tests capture them the way the bench harness does
// (bench/harness/trace_report.cpp): attach each collector to one track of
// a .sxt writer, run, finalise, and read the file back with read_sxt_file.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sxs/node.hpp"
#include "trace/category.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/collector.hpp"
#include "trace/stream/reader.hpp"
#include "trace/stream/writer.hpp"

namespace ncar::trace::testing {

/// Pin the tracing mode for one scope, restoring the previous mode on exit.
class ModeGuard {
public:
  explicit ModeGuard(Mode m) : before_(mode()) { set_mode(m); }
  ~ModeGuard() { set_mode(before_); }
  ModeGuard(const ModeGuard&) = delete;
  ModeGuard& operator=(const ModeGuard&) = delete;

private:
  Mode before_;
};

/// One .sxt writer plus the collectors attached to it.
class Capture {
public:
  explicit Capture(const std::string& path,
                   stream::Writer::Options opt = stream::Writer::Options())
      : path_(path), writer_(stream::Writer::open(path, opt)) {
    EXPECT_NE(writer_, nullptr) << path;
  }
  ~Capture() { detach(); }
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  /// Attach `c` as track (pid, tid) with the collector's tick and cap.
  void attach(Collector& c, int pid, int tid, const std::string& process,
              const std::string& thread, bool skip_if_empty = false) {
    stream::Writer::TrackSpec spec;
    spec.pid = pid;
    spec.tid = tid;
    spec.process_name = process;
    spec.thread_name = thread;
    spec.seconds_per_tick = c.seconds_per_tick();
    spec.skip_if_empty = skip_if_empty;
    spec.max_spans = c.max_spans();
    c.set_stream_sink(&writer_->add_track(spec));
    attached_.push_back(&c);
  }

  /// The bench harness's node layout: runtime on tid 0, cpu i on tid i+1
  /// with the skip-empty-CPU-track rule.
  void attach_node(sxs::Node& node) {
    attach(node.runtime_trace(), 0, 0, "node0", "runtime");
    for (int i = 0; i < node.cpu_count(); ++i) {
      attach(node.cpu(i).trace(), 0, i + 1, "node0",
             "cpu" + std::to_string(i), /*skip_if_empty=*/true);
    }
  }

  /// Detach every collector, finalise the file and parse it back.
  stream::SxtFile read() {
    detach();
    EXPECT_TRUE(writer_->finalize()) << path_;
    return stream::read_sxt_file(path_);
  }

  /// read(), rendered by the Chrome exporter.
  std::string chrome_json() {
    std::ostringstream os;
    write_chrome_trace(os, read());
    return os.str();
  }

  /// Valid after read().
  const stream::Writer::Stats& stats() const { return writer_->stats(); }

private:
  void detach() {
    for (Collector* c : attached_) c->set_stream_sink(nullptr);
    attached_.clear();
  }

  std::string path_;
  std::unique_ptr<stream::Writer> writer_;
  std::vector<Collector*> attached_;
};

}  // namespace ncar::trace::testing
