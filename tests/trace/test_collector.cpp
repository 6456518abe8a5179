#include "trace/collector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "capture.hpp"
#include "trace/category.hpp"

namespace {

using namespace ncar;
using trace::Category;
using trace::Collector;
using trace::Mode;
using trace::testing::Capture;
using trace::testing::ModeGuard;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(Collector, CountersAccumulatePerCategory) {
  Collector c;
  c.count_total(10.0);
  c.count(Category::VectorAdd, 7.0);
  c.count_total(2.0);
  c.count(Category::Scalar, 2.0);
  EXPECT_DOUBLE_EQ(c.total_ticks(), 12.0);
  EXPECT_DOUBLE_EQ(c.category_ticks(Category::VectorAdd), 7.0);
  EXPECT_DOUBLE_EQ(c.category_ticks(Category::Scalar), 2.0);
  EXPECT_DOUBLE_EQ(c.category_ticks(Category::Other), 0.0);
}

TEST(Collector, SpansRecordOnlyInSpanModes) {
  Collector c;
  Capture cap(temp_path("collector_modes.sxt"));
  cap.attach(c, 0, 0, "node0", "cpu0");
  {
    ModeGuard g(Mode::Off);
    c.span(Category::VectorAdd, 0.0, 5.0, "off");
  }
  {
    ModeGuard g(Mode::Summary);
    c.span(Category::VectorAdd, 0.0, 5.0, "summary");
  }
  {
    ModeGuard g(Mode::Full);
    c.span(Category::VectorAdd, 3.0, 5.0, "full");
  }
  {
    ModeGuard g(Mode::Stream);
    c.span(Category::Scalar, 8.0, 2.0, "stream");
  }
  const trace::stream::TrackData t = cap.read().tracks.at(0);
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_DOUBLE_EQ(t.spans[0].start, 3.0);
  EXPECT_DOUBLE_EQ(t.spans[0].duration, 5.0);
  EXPECT_EQ(t.spans[0].category,
            static_cast<std::uint8_t>(Category::VectorAdd));
  EXPECT_EQ(t.tags.at(t.spans[0].tag), "full");
  EXPECT_EQ(t.spans[1].category, static_cast<std::uint8_t>(Category::Scalar));
  EXPECT_EQ(t.tags.at(t.spans[1].tag), "stream");
  EXPECT_EQ(c.dropped_spans(), 0u);
}

TEST(Collector, ZeroDurationSpansAreSkipped) {
  ModeGuard g(Mode::Full);
  Collector c;
  Capture cap(temp_path("collector_zero.sxt"));
  cap.attach(c, 0, 0, "node0", "cpu0");
  c.span(Category::Scalar, 1.0, 0.0, "zero");
  c.span(Category::Scalar, 1.0, -1.0, "negative");
  EXPECT_TRUE(cap.read().tracks.at(0).spans.empty());
  EXPECT_EQ(c.dropped_spans(), 0u);
}

TEST(Collector, SpansWithoutASinkAreCountedAsDropped) {
  ModeGuard g(Mode::Full);
  Collector c;
  for (int i = 0; i < 10; ++i) c.span(Category::Other, i, 1.0, "s");
  EXPECT_EQ(c.dropped_spans(), 10u);
  c.reset();
  EXPECT_EQ(c.dropped_spans(), 0u);
}

TEST(Collector, AddCombinesCounterAndSpan) {
  ModeGuard g(Mode::Full);
  Collector c;
  Capture cap(temp_path("collector_add.sxt"));
  cap.attach(c, 0, 0, "node0", "io");
  c.add(Category::IoDisk, 2.0, 3.0, "xfer");
  EXPECT_DOUBLE_EQ(c.total_ticks(), 3.0);
  EXPECT_DOUBLE_EQ(c.category_ticks(Category::IoDisk), 3.0);
  ASSERT_EQ(cap.read().tracks.at(0).spans.size(), 1u);
}

TEST(Collector, InternedTagsAreStable) {
  Collector c;
  std::string name = "job1";
  const char* p1 = c.intern(name);
  name = "job2";
  const char* p2 = c.intern(name);
  EXPECT_STREQ(p1, "job1");
  EXPECT_STREQ(p2, "job2");
  // Re-interning an existing name returns the same storage.
  EXPECT_EQ(c.intern("job1"), p1);
}

TEST(Collector, ResetClearsCountersAndSpansButKeepsTags) {
  ModeGuard g(Mode::Full);
  Collector c;
  Capture cap(temp_path("collector_reset.sxt"));
  cap.attach(c, 0, 0, "node0", "cpu0");
  const char* tag = c.intern("keep");
  c.add(Category::Scalar, 0.0, 1.0, tag);
  c.span(Category::Scalar, 1.0, 1.0, tag);
  c.reset();
  EXPECT_DOUBLE_EQ(c.total_ticks(), 0.0);
  EXPECT_DOUBLE_EQ(c.category_ticks(Category::Scalar), 0.0);
  EXPECT_EQ(c.dropped_spans(), 0u);
  EXPECT_STREQ(tag, "keep");  // interned storage survives reset
  c.span(Category::Scalar, 7.0, 1.0, tag);
  // Only the span recorded after the reset reaches the file.
  const trace::stream::TrackData t = cap.read().tracks.at(0);
  ASSERT_EQ(t.spans.size(), 1u);
  EXPECT_DOUBLE_EQ(t.spans[0].start, 7.0);
}

TEST(Collector, SecondsPerTickIsRemembered) {
  Collector cpu_track(9.2e-9);
  Collector device_track;
  EXPECT_DOUBLE_EQ(cpu_track.seconds_per_tick(), 9.2e-9);
  EXPECT_DOUBLE_EQ(device_track.seconds_per_tick(), 1.0);
  EXPECT_EQ(cpu_track.max_spans(), trace::kMaxSpansPerTrack);
}

}  // namespace
