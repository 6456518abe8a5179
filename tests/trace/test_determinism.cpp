// Trace determinism: attribution counters, the spans read back from the
// .sxt, and the exported Chrome trace must be byte-identical under
// sequential and threaded host execution, and across repeated runs. The
// collectors are rank-private (same single-writer discipline as the Cpus),
// so this is the tracing counterpart of
// tests/integration/test_policy_determinism.cpp.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "capture.hpp"
#include "ccm2/model.hpp"
#include "common/thread_pool.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"
#include "trace/attribution.hpp"
#include "trace/category.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/collector.hpp"
#include "trace/stream/reader.hpp"

namespace {

using namespace ncar;
using sxs::ExecutionPolicy;
using sxs::MachineConfig;
using trace::Mode;
using trace::testing::Capture;
using trace::testing::ModeGuard;

struct TracedRun {
  std::unique_ptr<sxs::Node> node;
  trace::stream::SxtFile file;  ///< the node's tracks, read back
};

/// Run two CCM2 steps on 8 CPUs under `policy`, with every collector of
/// the node captured to a .sxt named `name`.
TracedRun run_ccm2(ExecutionPolicy policy, ThreadPool* pool,
                   const char* name) {
  TracedRun r;
  r.node = std::make_unique<sxs::Node>(MachineConfig::sx4_benchmarked(),
                                       policy);
  if (pool != nullptr) r.node->set_thread_pool(pool);
  Capture cap(::testing::TempDir() + name);
  cap.attach_node(*r.node);
  ccm2::Ccm2Config c;
  c.res = ccm2::t42l18();
  c.active_levels = 1;
  ccm2::Ccm2 model(c, *r.node);
  for (int s = 0; s < 2; ++s) model.step(8);
  r.file = cap.read();
  return r;
}

std::string render_chrome(const trace::stream::SxtFile& file) {
  std::ostringstream os;
  trace::write_chrome_trace(os, file);
  return os.str();
}

void expect_tracks_identical(const TracedRun& ra, const TracedRun& rb) {
  const sxs::Node& a = *ra.node;
  const sxs::Node& b = *rb.node;
  ASSERT_EQ(a.cpu_count(), b.cpu_count());
  for (int i = 0; i < a.cpu_count(); ++i) {
    const trace::Collector& ca = a.cpu(i).trace();
    const trace::Collector& cb = b.cpu(i).trace();
    EXPECT_EQ(ca.total_ticks(), cb.total_ticks()) << "cpu " << i;
    for (int k = 0; k < trace::kCategoryCount; ++k) {
      const auto cat = static_cast<trace::Category>(k);
      EXPECT_EQ(ca.category_ticks(cat), cb.category_ticks(cat))
          << "cpu " << i << " " << trace::to_string(cat);
    }
    EXPECT_EQ(ca.dropped_spans(), cb.dropped_spans());
  }
  EXPECT_EQ(a.runtime_trace().total_ticks(), b.runtime_trace().total_ticks());

  ASSERT_EQ(ra.file.tracks.size(), rb.file.tracks.size());
  for (std::size_t t = 0; t < ra.file.tracks.size(); ++t) {
    const trace::stream::TrackData& ta = ra.file.tracks[t];
    const trace::stream::TrackData& tb = rb.file.tracks[t];
    ASSERT_EQ(ta.spans.size(), tb.spans.size()) << ta.thread_name;
    for (std::size_t s = 0; s < ta.spans.size(); ++s) {
      EXPECT_EQ(ta.spans[s].start, tb.spans[s].start);
      EXPECT_EQ(ta.spans[s].duration, tb.spans[s].duration);
      EXPECT_EQ(ta.spans[s].category, tb.spans[s].category);
      EXPECT_EQ(ta.tags.at(ta.spans[s].tag), tb.tags.at(tb.spans[s].tag));
    }
    EXPECT_EQ(ta.dropped, tb.dropped);
  }
}

TEST(TraceDeterminism, SummaryCountersPolicyInvariant) {
  ModeGuard g(Mode::Summary);
  ThreadPool pool(4);
  const TracedRun seq =
      run_ccm2(ExecutionPolicy::Sequential, nullptr, "s_seq.sxt");
  const TracedRun thr =
      run_ccm2(ExecutionPolicy::Threaded, &pool, "s_thr.sxt");
  expect_tracks_identical(seq, thr);
}

TEST(TraceDeterminism, FullSpansAndChromeTracePolicyInvariant) {
  ModeGuard g(Mode::Full);
  ThreadPool pool(4);
  const TracedRun seq =
      run_ccm2(ExecutionPolicy::Sequential, nullptr, "f_seq.sxt");
  const TracedRun thr =
      run_ccm2(ExecutionPolicy::Threaded, &pool, "f_thr.sxt");
  ASSERT_FALSE(seq.file.tracks.at(1).spans.empty());
  expect_tracks_identical(seq, thr);
  EXPECT_EQ(render_chrome(seq.file), render_chrome(thr.file));
}

TEST(TraceDeterminism, RepeatedRunsByteIdentical) {
  ModeGuard g(Mode::Full);
  ThreadPool pool(4);
  const TracedRun a =
      run_ccm2(ExecutionPolicy::Threaded, &pool, "r_a.sxt");
  const TracedRun b =
      run_ccm2(ExecutionPolicy::Threaded, &pool, "r_b.sxt");
  expect_tracks_identical(a, b);
  EXPECT_EQ(render_chrome(a.file), render_chrome(b.file));
}

TEST(TraceDeterminism, AttributionTablesPolicyInvariant) {
  ModeGuard g(Mode::Summary);
  ThreadPool pool(4);
  const TracedRun seq =
      run_ccm2(ExecutionPolicy::Sequential, nullptr, "a_seq.sxt");
  const TracedRun thr =
      run_ccm2(ExecutionPolicy::Threaded, &pool, "a_thr.sxt");
  std::vector<const trace::Collector*> ta, tb;
  for (int i = 0; i < seq.node->cpu_count(); ++i) {
    ta.push_back(&seq.node->cpu(i).trace());
    tb.push_back(&thr.node->cpu(i).trace());
  }
  const auto aa = trace::build_attribution(
      std::span<const trace::Collector* const>(ta.data(), ta.size()));
  const auto ab = trace::build_attribution(
      std::span<const trace::Collector* const>(tb.data(), tb.size()));
  EXPECT_EQ(aa.total_ticks, ab.total_ticks);
  for (std::size_t i = 0; i < aa.rows.size(); ++i) {
    EXPECT_EQ(aa.rows[i].ticks, ab.rows[i].ticks);
    EXPECT_EQ(aa.rows[i].fraction, ab.rows[i].fraction);
  }
}

}  // namespace
