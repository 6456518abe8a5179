#include "spans.hpp"

#include <chrono>
#include <cstring>
#include <fstream>
#include <map>

namespace hostbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::open(const char* name) {
  if (!enabled_) return -1;
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back().index;
  r.iteration = iteration_;
  r.start_ns = now_ns();
  records_.push_back(r);
  const int index = static_cast<int>(records_.size()) - 1;
  stack_.push_back(Open{index, {}});
  return index;
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  Record& r = records_[static_cast<std::size_t>(index)];
  r.end_ns = now_ns();
  r.busy_ns = r.end_ns - r.start_ns;
  // Spans close in LIFO order; an out-of-order close is a benchmark bug.
  if (!stack_.empty() && stack_.back().index == index) stack_.pop_back();
}

void SpanRecorder::leaf(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns) {
  if (!enabled_) return;
  std::vector<int>& folded = stack_.empty() ? root_folded_ : stack_.back().folded;
  for (int i : folded) {
    Record& r = records_[static_cast<std::size_t>(i)];
    if (r.name == name || std::strcmp(r.name, name) == 0) {
      r.end_ns = end_ns;
      r.busy_ns += end_ns - start_ns;
      ++r.count;
      return;
    }
  }
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back().index;
  r.iteration = iteration_;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.busy_ns = end_ns - start_ns;
  records_.push_back(r);
  folded.push_back(static_cast<int>(records_.size()) - 1);
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  std::vector<std::int64_t> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) self[i] = records_[i].busy_ns;
  for (const Record& r : records_) {
    if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= r.busy_ns;
  }
  return self;
}

std::vector<double> SpanRecorder::busy_ms(const char* name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (std::strcmp(r.name, name) == 0) out.push_back(1e-6 * static_cast<double>(r.busy_ns));
  }
  return out;
}

std::vector<double> SpanRecorder::self_ms(const char* name) const {
  const std::vector<std::int64_t> self = self_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (std::strcmp(records_[i].name, name) == 0) {
      out.push_back(1e-6 * static_cast<double>(self[i]));
    }
  }
  return out;
}

std::vector<double> SpanRecorder::busy_ms_per_iteration(const char* name) const {
  std::map<int, double> sums;
  for (const Record& r : records_) {
    if (std::strcmp(r.name, name) == 0) {
      sums[r.iteration] += 1e-6 * static_cast<double>(r.busy_ns);
    }
  }
  std::vector<double> out;
  for (const auto& [iteration, ms] : sums) out.push_back(ms);
  return out;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
        << 1e-3 * static_cast<double>(r.start_ns - t0)
        << ",\"dur\":" << 1e-3 * static_cast<double>(r.end_ns - r.start_ns)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
        << ",\"iteration\":" << r.iteration << ",\"count\":" << r.count
        << ",\"busy_us\":" << 1e-3 * static_cast<double>(r.busy_ns) << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace hostbench
