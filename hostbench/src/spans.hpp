#pragma once
// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a library layer in a span
// (name, start, end, parent, iteration). Spans stay in memory while the run
// measures and are written out once it ends. A layer's self time is its
// span's duration minus what its child spans cover.
//
// High-frequency leaf spans (a DES callback fires tens of thousands of times
// per simulated month) are folded into one record per (parent, name) with a
// call count; their busy time is still exact, only the individual intervals
// are not kept.

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

std::int64_t now_ns();

class SpanRecorder {
public:
  struct Record {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t busy_ns = 0;  ///< end - start, or the folded leaves' sum
    std::int32_t parent = -1;
    std::int32_t iteration = -1;
    std::uint64_t count = 1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Spans opened from now on belong to iteration `i` (-1: setup/checks).
  void set_iteration(int i) { iteration_ = i; }

  /// Open a span under the innermost open one; returns its index, or -1
  /// when recording is disabled.
  int open(const char* name);
  void close(int index);
  /// Fold one leaf interval into the (innermost open span, name) record.
  void leaf(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Record>& records() const { return records_; }
  /// Busy time minus the busy time of direct children, per record.
  std::vector<std::int64_t> self_ns() const;

  /// Busy milliseconds of every record named `name` (one per record).
  std::vector<double> busy_ms(const char* name) const;
  /// Self milliseconds of every record named `name`.
  std::vector<double> self_ms(const char* name) const;
  /// Sum over iterations of the busy time of `name`, per iteration that
  /// recorded it (folded leaves and repeated spans summed).
  std::vector<double> busy_ms_per_iteration(const char* name) const;

  /// Write every record as a Chrome trace ("X" events, microseconds).
  bool write_chrome_json(const std::string& path) const;

private:
  struct Open {
    int index;
    std::vector<int> folded;  ///< leaf records folded under this span
  };
  bool enabled_ = false;
  int iteration_ = -1;
  std::vector<Record> records_;
  std::vector<Open> stack_;
  std::vector<int> root_folded_;
};

/// RAII span; a no-op when the recorder is disabled.
class Scope {
public:
  Scope(SpanRecorder& rec, const char* name)
      : rec_(rec), index_(rec.open(name)) {}
  ~Scope() { rec_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace hostbench
