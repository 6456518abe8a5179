// The conversion contract: SX4NCAR_TRACE=full and =stream capture a run
// the same way — through per-track sinks into a .sxt — and the Chrome JSON
// converted from the file does not depend on the mode, on how the sinks cut
// the stream into chunks, or on whether the LZ stage packed them. A
// mid-run Collector::reset leaves exactly the spans a capture started at
// the reset would hold. The tests use the bench harness's track layout
// (trace_report.cpp): runtime on tid 0 always, cpu i on tid i+1 with the
// skip-empty rule.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "capture.hpp"
#include "ccm2/model.hpp"
#include "ocean/mom.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"
#include "trace/category.hpp"
#include "trace/stream/writer.hpp"

namespace {

using namespace ncar;
using trace::Mode;
using trace::stream::Writer;
using trace::testing::Capture;
using trace::testing::ModeGuard;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::size_t count_events(const std::string& json) {
  std::size_t n = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++n;
  }
  return n;
}

/// Run `model_fn(node)` on a fresh node captured in `mode` with writer
/// options `opt`, and return the converted JSON.
template <typename ModelFn>
std::string capture_json(const std::string& sxt_path, Mode mode,
                         Writer::Options opt, ModelFn model_fn) {
  ModeGuard g(mode);
  sxs::Node node(sxs::MachineConfig::sx4_benchmarked(),
                 sxs::ExecutionPolicy::Sequential);
  Capture cap(sxt_path, opt);
  cap.attach_node(node);
  model_fn(node);
  const std::string json = cap.chrome_json();
  EXPECT_EQ(cap.stats().dropped, 0u);
  EXPECT_EQ(count_events(json), cap.stats().events);
  return json;
}

/// Full mode with the default writer against Stream mode with small raw
/// chunks: the converted JSON must match byte for byte.
template <typename ModelFn>
void expect_convert_byte_identical(const std::string& name,
                                   ModelFn model_fn) {
  const std::string full = capture_json(temp_path(name + "_full.sxt"),
                                        Mode::Full, Writer::Options(),
                                        model_fn);
  Writer::Options raw;
  raw.chunk_records = 16;
  raw.pack = 0;
  const std::string stream =
      capture_json(temp_path(name + "_stream.sxt"), Mode::Stream, raw,
                   model_fn);
  ASSERT_GT(count_events(full), 0u);
  EXPECT_EQ(stream, full);
}

TEST(StreamConvert, Ccm2TraceByteIdentical) {
  expect_convert_byte_identical("convert_ccm2", [](sxs::Node& node) {
    ccm2::Ccm2Config c;
    c.res = ccm2::t42l18();
    c.active_levels = 1;
    ccm2::Ccm2 model(c, node);
    for (int s = 0; s < 2; ++s) model.step(8);
  });
}

TEST(StreamConvert, MomTraceByteIdentical) {
  expect_convert_byte_identical("convert_mom", [](sxs::Node& node) {
    ocean::Mom model(ocean::MomConfig::low_resolution(), node);
    for (int s = 0; s < 2; ++s) model.step(8);
  });
}

TEST(StreamConvert, ResetMatchesLiveExportToo) {
  // One capture spans a mid-run node.reset(); its dead epoch is compacted
  // away. The other attaches only after the reset. Same JSON.
  ModeGuard g(Mode::Full);
  ccm2::Ccm2Config c;
  c.res = ccm2::t42l18();
  c.active_levels = 1;
  auto run = [&](bool attach_before_reset, const std::string& path) {
    sxs::Node node(sxs::MachineConfig::sx4_benchmarked(),
                   sxs::ExecutionPolicy::Sequential);
    Capture cap(path);
    if (attach_before_reset) cap.attach_node(node);
    ccm2::Ccm2 model(c, node);
    model.step(8);
    node.reset();
    if (!attach_before_reset) cap.attach_node(node);
    model.step(8);
    return cap.chrome_json();
  };
  const std::string compacted = run(true, temp_path("convert_reset.sxt"));
  const std::string after = run(false, temp_path("convert_after.sxt"));
  ASSERT_GT(count_events(after), 0u);
  EXPECT_EQ(compacted, after);
}

}  // namespace
