// charge_replay_stream: the cost model and trace capture, no numerics.
// Each pass opens a fresh .sxt writer on the node's tracks, replays MOM
// and CCM2 charges at 1-32 CPUs under trace::Mode::Stream, and finalizes
// the writer; an iteration is kPasses passes. The seed orders the (model,
// CPU count, step index) sequence: MOM at two step indices, CCM2 (whose
// charge has no step) once. Each iteration ends with a 32-point design
// sweep (sweep.hpp) with tracing off, of one of kSweepGrids seeded grids in
// turn: cold machines beside the warm node, and the machines layer's
// figures.

#include <array>
#include <filesystem>
#include <memory>
#include <string>

#include "ccm2/model.hpp"
#include "ccm2/resolution.hpp"
#include "harness.hpp"
#include "ocean/mom.hpp"
#include "sweep.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"
#include "trace/category.hpp"
#include "trace/collector.hpp"
#include "trace/stream/reader.hpp"
#include "trace/stream/writer.hpp"
#include "workload_util.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using ncar::sxs::Node;
using ncar::trace::stream::Writer;

constexpr std::array<int, 6> kCpus = {1, 2, 4, 8, 16, 32};
/// One ordinary MOM step and one diagnostics step (every 10th).
constexpr std::array<long, 2> kSteps = {8, 9};
constexpr std::size_t kChunkRecords = 4096;  ///< the writer's default
/// Passes per iteration, each into its own writer. A pass takes ~25 ms,
/// and a charge on the pool now and then waits 5-25 ms for the second
/// thread on a shared host; over four passes such a wait moves the
/// iteration's time by a quarter as much.
constexpr int kPasses = 4;
/// Seeded 32-point grids the end-of-iteration sweep cycles through.
constexpr std::size_t kSweepGrids = 8;

/// Span names per CPU count, so charges at 1 and 32 CPUs time separately;
/// sxs.charge_ms.cpusN is the time of every charge at N CPUs in one
/// pass (two MOM steps and one CCM2 step).
const char* charge_span(int cpus) {
  switch (cpus) {
    case 1: return "sxs.charge.cpus1";
    case 2: return "sxs.charge.cpus2";
    case 4: return "sxs.charge.cpus4";
    case 8: return "sxs.charge.cpus8";
    case 16: return "sxs.charge.cpus16";
    default: return "sxs.charge.cpus32";
  }
}

struct Charge {
  bool mom = true;
  int cpus = 1;
  long step = 0;
};

class ChargeReplayStream final : public Workload {
public:
  ChargeReplayStream(const RunConfig& cfg, ncar::ThreadPool& pool)
      : cfg_(cfg), pool_(pool), sweep_(cfg.seed, kSmallGrid, kSweepGrids, pool) {}

  ~ChargeReplayStream() override { detach(); }

  void setup(SpanRecorder& spans) override {
    node_ = std::make_unique<Node>(ncar::sxs::MachineConfig::sx4_benchmarked(),
                                   ncar::sxs::ExecutionPolicy::Threaded);
    node_->set_thread_pool(&pool_);
    {
      Scope s(spans, "ocean.setup");
      mom_ = std::make_unique<ncar::ocean::Mom>(
          ncar::ocean::MomConfig::high_resolution(), *node_);
    }
    {
      Scope s(spans, "ccm2.setup");
      ncar::ccm2::Ccm2Config c;
      c.res = ncar::ccm2::t170l18();
      c.active_levels = 1;  // fig8_ccm2's configuration; charges ignore it
      ccm2_ = std::make_unique<ncar::ccm2::Ccm2>(c, *node_);
    }
    sequence_.clear();
    for (int cpus : kCpus) {
      for (long step : kSteps) sequence_.push_back({true, cpus, step});
      sequence_.push_back({false, cpus, 0});
    }
    InputRng(cfg_.seed).shuffle(sequence_);
    sweep_.setup(spans);
    for (int p = 0; p < kPasses; ++p) {
      passes_[p].path = cfg_.out_dir + "/charge_replay_stream-seed" +
                        std::to_string(cfg_.seed) + "-pass" + std::to_string(p) + ".sxt";
    }
  }

  void prepare() override {
    // The reference: the same sequence from a reset node with tracing off.
    reference_ = replay_off();
    ncar::trace::set_mode(ncar::trace::Mode::Stream);
  }

  IterationResult iterate(SpanRecorder& spans) override {
    Node& node = *node_;
    const std::uint64_t hits0 = node.cost_cache_hits();
    const std::uint64_t misses0 = node.cost_cache_misses();
    double bytes = 0;
    for (Pass& pass : passes_) {
      node.reset();
      {
        Scope s(spans, "trace.open");
        Writer::Options opt;
        opt.chunk_records = kChunkRecords;
        opt.pack = 1;
        pass.writer = Writer::open(pass.path, opt);
        if (pass.writer != nullptr) attach(*pass.writer);
      }
      {
        Scope s(spans, "sxs.replay");
        pass.got = replay_charges(spans);
      }
      detach();
      pass.finalized = false;
      if (pass.writer != nullptr) {
        Scope s(spans, "trace.finalize");
        pass.finalized = pass.writer->finalize();
        bytes += static_cast<double>(pass.writer->stats().file_bytes);
      }
    }
    cache_hits_ = node.cost_cache_hits() - hits0;
    cache_lookups_ = cache_hits_ + (node.cost_cache_misses() - misses0);
    ncar::trace::set_mode(ncar::trace::Mode::Off);
    sweep_.run(spans);
    ncar::trace::set_mode(ncar::trace::Mode::Stream);
    return {static_cast<double>(kPasses * sequence_.size()), bytes};
  }

  bool check(SpanRecorder& spans) override {
    ncar::trace::set_mode(ncar::trace::Mode::Off);
    bool ok = sweep_.check(spans);
    ncar::trace::set_mode(ncar::trace::Mode::Stream);
    double events = 0, bytes = 0, dropped = 0;
    for (Pass& pass : passes_) {
      ok = ok && check_pass(pass, spans);
      if (pass.writer != nullptr) {
        events += static_cast<double>(pass.writer->stats().events);
        bytes += static_cast<double>(pass.writer->stats().file_bytes);
        dropped += static_cast<double>(pass.writer->stats().dropped);
      }
      // Close and delete the file here, outside the timed iteration, so
      // the next pass creates a new file rather than truncating this one.
      pass.writer.reset();
      std::error_code ec;
      std::filesystem::remove(pass.path, ec);
    }
    if (spans.enabled()) {
      traced_.push_back({events, bytes, dropped, static_cast<double>(cache_hits_),
                         static_cast<double>(cache_lookups_)});
      // The capture overhead: the same replay with tracing off.
      Scope s(spans, "sxs.replay_off");
      ok = ok && same_bits(replay_off(), reference_);
    }
    return ok;
  }

  void layer_metrics(const SpanRecorder& spans,
                     std::vector<Metric>& out) const override {
    auto mean_of = [&](std::size_t field) {
      double s = 0;
      for (const auto& t : traced_) s += t[field];
      return traced_.empty() ? 0.0 : s / static_cast<double>(traced_.size());
    };
    const double events = mean_of(0), bytes = mean_of(1), hits = mean_of(3),
                 lookups = mean_of(4);
    const double stream = median(spans.busy_ms("sxs.replay"));
    const double off = median(spans.busy_ms("sxs.replay_off"));
    const double c1 = median(spans.busy_ms_per_iteration("sxs.charge.cpus1")) / kPasses;
    const double c32 = median(spans.busy_ms_per_iteration("sxs.charge.cpus32")) / kPasses;
    out.push_back({"ocean.setup_ms", median(spans.busy_ms("ocean.setup")), "", ""});
    out.push_back({"ccm2.setup_ms", median(spans.busy_ms("ccm2.setup")), "", ""});
    out.push_back({"sxs.replay_ms", stream, "", ""});
    out.push_back({"sxs.charge_ms.cpus1", c1, "", ""});
    out.push_back({"sxs.charge_ms.cpus32", c32, "", ""});
    out.push_back({"sxs.cost_cache.hits", hits, "", ""});
    out.push_back({"sxs.cost_cache.lookups", lookups, "", ""});
    out.push_back({"sxs.cost_cache.hit_rate", lookups > 0 ? hits / lookups : 0.0, "", ""});
    out.push_back({"pool.charge_gap_ms", c32 - c1, "", ""});
    out.push_back({"trace.events_per_iter", events, "", ""});
    out.push_back({"trace.bytes_per_event", events > 0 ? bytes / events : 0.0, "", ""});
    out.push_back({"trace.dropped", mean_of(2), "", ""});
    out.push_back({"trace.finalize_ms", median(spans.busy_ms("trace.finalize")), "", ""});
    out.push_back({"trace.capture_overhead_frac", off > 0 ? stream / off - 1.0 : 0.0, "", ""});
    sweep_.layer_metrics(spans, cfg_.threads, out);
  }

  const char* trace_mode() const override { return "stream"; }

private:
  /// One writer's pass: its file, the simulated seconds it replayed.
  struct Pass {
    std::string path;
    std::unique_ptr<Writer> writer;
    std::vector<double> got;
    bool finalized = false;
  };

  /// Stream == Off bit for bit, and the file reads back through the
  /// strict reader with zero drops and the writer's span count and size.
  bool check_pass(const Pass& pass, SpanRecorder& spans) const {
    if (pass.writer == nullptr || !pass.finalized || !same_bits(pass.got, reference_)) {
      return false;
    }
    const Writer::Stats& st = pass.writer->stats();
    bool ok = st.dropped == 0;
    try {
      Scope s(spans, "trace.readback");
      const auto file = ncar::trace::stream::read_sxt_file(pass.path);
      std::uint64_t spans_read = 0;
      for (const auto& track : file.tracks) {
        ok = ok && track.dropped == 0;
        spans_read += track.spans.size();
      }
      ok = ok && spans_read == st.events && file.stats.file_bytes == st.file_bytes;
    } catch (const ncar::trace::stream::FormatError&) {
      ok = false;
    }
    return ok;
  }

  double charge(const Charge& c) const {
    return c.mom ? mom_->charge_step(c.cpus, c.step) : ccm2_->charge_step(c.cpus).total;
  }

  std::vector<double> replay_charges(SpanRecorder& spans) const {
    std::vector<double> out;
    out.reserve(sequence_.size());
    for (const Charge& c : sequence_) {
      Scope s(spans, charge_span(c.cpus));
      out.push_back(charge(c));
    }
    return out;
  }

  /// The sequence from a reset node with tracing off.
  std::vector<double> replay_off() const {
    const ncar::trace::Mode mode = ncar::trace::mode();
    ncar::trace::set_mode(ncar::trace::Mode::Off);
    node_->reset();
    std::vector<double> out;
    for (const Charge& c : sequence_) out.push_back(charge(c));
    ncar::trace::set_mode(mode);
    return out;
  }

  /// Stream the node's runtime track and every CPU track, in the order
  /// and identity the bench harness's stream traces use.
  void attach(Writer& writer) {
    Writer::TrackSpec spec;
    spec.process_name = "node0";
    auto add = [&](ncar::trace::Collector& c) {
      spec.seconds_per_tick = c.seconds_per_tick();
      spec.max_spans = c.max_spans();
      c.set_stream_sink(&writer.add_track(spec));
      attached_.push_back(&c);
    };
    spec.tid = 0;
    spec.thread_name = "runtime";
    add(node_->runtime_trace());
    for (int i = 0; i < node_->cpu_count(); ++i) {
      spec.tid = i + 1;
      spec.thread_name = "cpu" + std::to_string(i);
      spec.skip_if_empty = true;
      add(node_->cpu(i).trace());
    }
  }

  void detach() {
    for (ncar::trace::Collector* c : attached_) c->set_stream_sink(nullptr);
    attached_.clear();
  }

  RunConfig cfg_;
  ncar::ThreadPool& pool_;
  std::unique_ptr<Node> node_;
  std::unique_ptr<ncar::ocean::Mom> mom_;
  std::unique_ptr<ncar::ccm2::Ccm2> ccm2_;
  SweepRunner sweep_;
  std::vector<Charge> sequence_;
  std::vector<double> reference_;
  std::array<Pass, kPasses> passes_;
  std::vector<ncar::trace::Collector*> attached_;
  std::uint64_t cache_hits_ = 0, cache_lookups_ = 0;
  /// Per traced iteration: events, file bytes, dropped, cache hits, lookups.
  std::vector<std::array<double, 5>> traced_;
};

}  // namespace

std::unique_ptr<Workload> make_charge_replay_stream(const RunConfig& cfg,
                                                    ncar::ThreadPool& pool) {
  return std::make_unique<ChargeReplayStream>(cfg, pool);
}

}  // namespace hostbench
