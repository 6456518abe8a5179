#include "trace/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "capture.hpp"
#include "trace/category.hpp"
#include "trace/collector.hpp"

namespace {

using namespace ncar;
using trace::Category;
using trace::Collector;
using trace::Mode;
using trace::testing::Capture;

class ChromeTraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    before_ = trace::mode();
    trace::set_mode(Mode::Full);
  }
  void TearDown() override { trace::set_mode(before_); }

  static std::string path(const char* name) {
    return ::testing::TempDir() + name;
  }

  static std::size_t count(const std::string& s, const std::string& what) {
    std::size_t n = 0;
    for (std::size_t pos = s.find(what); pos != std::string::npos;
         pos = s.find(what, pos + 1)) {
      ++n;
    }
    return n;
  }

  Mode before_ = Mode::Off;
};

TEST_F(ChromeTraceTest, EmptyTrackListIsValidJson) {
  std::ostringstream os;
  trace::write_chrome_trace(os, trace::stream::SxtFile{});
  const std::string out = os.str();
  EXPECT_EQ(out.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(out.find("]}"), std::string::npos);
}

TEST_F(ChromeTraceTest, EmitsMetadataAndCompleteEvents) {
  Collector c(2.0);  // 2 seconds per tick: ts/dur scale by 2e6
  Capture cap(path("chrome_events.sxt"));
  cap.attach(c, 0, 1, "node0", "cpu1");
  c.add(Category::VectorAdd, 1.0, 3.0, "vec");
  const std::string out = cap.chrome_json();
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"node0\""), std::string::npos);
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"cpu1\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"vec\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"vector_add\""), std::string::npos);
  // ts = 1.0 tick * 2 s/tick * 1e6 us/s, dur = 3.0 * 2e6.
  EXPECT_NE(out.find("\"ts\":2e+06"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":6e+06"), std::string::npos);
  EXPECT_EQ(out.find("trace_dropped_spans"), std::string::npos);
}

TEST_F(ChromeTraceTest, EscapesTagStrings) {
  Collector c;
  Capture cap(path("chrome_escape.sxt"));
  cap.attach(c, 0, 0, "node0", "cpu0");
  const char* tag = c.intern("a\"b\\c\nd");
  c.add(Category::Other, 0.0, 1.0, tag);
  EXPECT_NE(cap.chrome_json().find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST_F(ChromeTraceTest, ByteIdenticalAcrossRenders) {
  Collector c(9.2e-9);
  Capture cap(path("chrome_renders.sxt"));
  cap.attach(c, 0, 1, "node0", "cpu0");
  c.add(Category::VectorMul, 100.0, 250.5, "vec");
  c.add(Category::Scalar, 350.5, 17.0, "scalar");
  const trace::stream::SxtFile file = cap.read();
  std::ostringstream a;
  std::ostringstream b;
  trace::write_chrome_trace(a, file);
  trace::write_chrome_trace(b, file);
  EXPECT_EQ(a.str(), b.str());
}

TEST_F(ChromeTraceTest, ExportCapsSpansAndCountsDrops) {
  // The file keeps all ten spans; the export keeps the first max_spans and
  // reports the rest, with the cap, as truncation metadata.
  Collector c;
  trace::stream::Writer::Options opt;
  opt.chunk_records = 4;
  Capture cap(path("chrome_cap.sxt"), opt);
  cap.attach(c, 0, 0, "node0", "cpu0");
  for (int i = 0; i < 10; ++i) c.span(Category::Other, i, 1.0, "s");
  trace::stream::SxtFile file = cap.read();
  ASSERT_EQ(file.tracks.at(0).spans.size(), 10u);
  EXPECT_EQ(file.tracks[0].max_spans, trace::kMaxSpansPerTrack);
  file.tracks[0].max_spans = 4;
  std::ostringstream os;
  trace::write_chrome_trace(os, file);
  const std::string out = os.str();
  EXPECT_EQ(count(out, "\"ph\":\"X\""), 4u);
  EXPECT_NE(out.find("\"ts\":3e+06,"), std::string::npos);  // the first four
  EXPECT_EQ(out.find("\"ts\":4e+06,"), std::string::npos);
  EXPECT_NE(out.find("\"args\":{\"dropped\":6,\"max_spans\":4}"),
            std::string::npos);
}

TEST_F(ChromeTraceTest, ConvertsAFileAndReportsBadPaths) {
  Collector c;
  Capture cap(path("chrome_convert.sxt"));
  cap.attach(c, 0, 0, "node0", "cpu0");
  c.add(Category::Scalar, 0.0, 1.0, "scalar");
  const std::string expected = cap.chrome_json();
  trace::convert_sxt_file(path("chrome_convert.sxt"),
                          path("chrome_convert.json"));
  std::ifstream in(path("chrome_convert.json"), std::ios::binary);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), expected);
  EXPECT_THROW(trace::convert_sxt_file(path("chrome_missing.sxt"),
                                       path("chrome_missing.json")),
               trace::stream::FormatError);
  EXPECT_THROW(trace::convert_sxt_file(path("chrome_convert.sxt"),
                                       path("no_such_dir/x/out.json")),
               std::runtime_error);
}

TEST(FormatDouble, ShortestRoundTrip) {
  EXPECT_EQ(trace::format_double(0.0), "0");
  EXPECT_EQ(trace::format_double(1.5), "1.5");
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(trace::format_double(v)), v);  // exact round trip
}

}  // namespace
