#include "harness/trace_report.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <ostream>
#include <vector>

#include "harness/reporter.hpp"
#include "sxs/machine.hpp"
#include "sxs/node.hpp"
#include "trace/attribution.hpp"
#include "trace/category.hpp"
#include "trace/chrome_trace.hpp"

namespace ncar::bench {

namespace {

std::vector<const trace::Collector*> cpu_tracks(const sxs::Node& node) {
  std::vector<const trace::Collector*> tracks;
  tracks.reserve(static_cast<std::size_t>(node.cpu_count()));
  for (int i = 0; i < node.cpu_count(); ++i) {
    tracks.push_back(&node.cpu(i).trace());
  }
  return tracks;
}

void report_rows(BenchReporter& rep, const std::string& prefix,
                 const trace::Attribution& attr, const std::string& unit,
                 bool fractions) {
  rep.metric(prefix + ".total." + unit, attr.total_ticks, unit);
  for (const trace::AttributionRow& row : attr.rows) {
    const std::string base = prefix + "." + trace::to_string(row.category);
    rep.metric(base + "." + unit, row.ticks, unit);
    if (fractions) rep.metric(base + ".fraction", row.fraction);
  }
}

void report_cpu_and_runtime(BenchReporter& rep, const std::string& prefix,
                            const std::vector<const trace::Collector*>& cpus,
                            const std::vector<const trace::Collector*>& runtime) {
  report_rows(rep, prefix + ".attribution",
              trace::build_attribution(cpus), "cycles",
              /*fractions=*/true);
  report_rows(rep, prefix + ".attribution.node",
              trace::build_attribution(runtime), "seconds",
              /*fractions=*/false);
  // A span recorded while no sink was attached is lost; surface the count
  // (and the export's per-track cap) instead of letting a truncated trace
  // read as a short run. Only span-recording modes can lose spans, so
  // summary-mode output stays unchanged.
  if (trace::spans_enabled(trace::mode())) {
    double dropped = 0.0;
    double max_spans = 0.0;
    for (const trace::Collector* c : cpus) {
      dropped += static_cast<double>(c->dropped_spans());
      max_spans = std::max(max_spans, static_cast<double>(c->max_spans()));
    }
    for (const trace::Collector* c : runtime) {
      dropped += static_cast<double>(c->dropped_spans());
      max_spans = std::max(max_spans, static_cast<double>(c->max_spans()));
    }
    rep.metric(prefix + ".trace.dropped_spans", dropped);
    rep.metric(prefix + ".trace.max_spans", max_spans);
  }
}

void print_rows(std::ostream& os, const trace::Attribution& attr,
                const char* unit) {
  char line[128];
  std::snprintf(line, sizeof line, "  %-16s %18s %8s\n", "category", unit,
                "share");
  os << "attribution (" << trace::to_string(trace::mode()) << " mode):\n"
     << line;
  for (const trace::AttributionRow& row : attr.rows) {
    if (row.ticks == 0.0) continue;
    std::snprintf(line, sizeof line, "  %-16s %18.6e %7.2f%%\n",
                  trace::to_string(row.category), row.ticks,
                  100.0 * row.fraction);
    os << line;
  }
  std::snprintf(line, sizeof line, "  %-16s %18.6e\n", "total",
                attr.total_ticks);
  os << line << "\n";
}

}  // namespace

void report_attribution(BenchReporter& rep, const std::string& prefix,
                        const sxs::Node& node) {
  if (trace::mode() == trace::Mode::Off) return;
  report_cpu_and_runtime(rep, prefix, cpu_tracks(node),
                         {&node.runtime_trace()});
}

void report_attribution(BenchReporter& rep, const std::string& prefix,
                        const sxs::Machine& machine) {
  if (trace::mode() == trace::Mode::Off) return;
  std::vector<const trace::Collector*> cpus;
  std::vector<const trace::Collector*> runtime;
  for (int n = 0; n < machine.node_count(); ++n) {
    const sxs::Node& node = machine.node(n);
    for (int i = 0; i < node.cpu_count(); ++i) {
      cpus.push_back(&node.cpu(i).trace());
    }
    runtime.push_back(&node.runtime_trace());
  }
  report_cpu_and_runtime(rep, prefix, cpus, runtime);
}

void report_attribution(BenchReporter& rep, const std::string& prefix,
                        const trace::Collector& track,
                        const std::string& unit) {
  if (trace::mode() == trace::Mode::Off) return;
  report_rows(rep, prefix + ".attribution", trace::build_attribution(track),
              unit, /*fractions=*/true);
}

void print_attribution(std::ostream& os, const sxs::Node& node) {
  if (trace::mode() == trace::Mode::Off) return;
  print_rows(os, trace::build_attribution(cpu_tracks(node)), "cycles");
}

StreamTrace::StreamTrace(BenchReporter& rep, sxs::Node& node) : rep_(rep) {
  if (!trace::spans_enabled(trace::mode())) return;
  writer_ = trace::stream::Writer::open(rep.aux_path("trace.sxt"));
  if (writer_ == nullptr) return;
  trace::stream::Writer::TrackSpec spec;
  spec.process_name = "node0";
  spec.thread_name = "runtime";
  attach(node.runtime_trace(), spec);
  spec.skip_if_empty = true;
  for (int i = 0; i < node.cpu_count(); ++i) {
    spec.tid = i + 1;
    spec.thread_name = "cpu" + std::to_string(i);
    attach(node.cpu(i).trace(), spec);
  }
}

StreamTrace::StreamTrace(BenchReporter& rep, sxs::Node& node,
                         trace::Collector& extra_track,
                         const std::string& extra_name)
    : StreamTrace(rep, node) {
  if (writer_ == nullptr) return;
  trace::stream::Writer::TrackSpec spec;
  spec.pid = 1;
  spec.process_name = extra_name;
  spec.thread_name = extra_name;
  attach(extra_track, spec);
}

StreamTrace::~StreamTrace() {
  for (trace::Collector* c : attached_) c->set_stream_sink(nullptr);
  // writer_ destructor finalises if finish() never ran.
}

void StreamTrace::attach(trace::Collector& collector,
                         const trace::stream::Writer::TrackSpec& spec) {
  trace::stream::Writer::TrackSpec full = spec;
  full.seconds_per_tick = collector.seconds_per_tick();
  full.max_spans = collector.max_spans();
  collector.set_stream_sink(&writer_->add_track(full));
  attached_.push_back(&collector);
}

void StreamTrace::finish() {
  if (writer_ == nullptr) return;
  for (trace::Collector* c : attached_) c->set_stream_sink(nullptr);
  attached_.clear();
  const bool ok = writer_->finalize();
  const trace::stream::Writer::Stats& st = writer_->stats();
  const std::string prefix = rep_.name() + ".trace_stream";
  const double events = static_cast<double>(st.events);
  const double bytes = static_cast<double>(st.file_bytes);
  rep_.metric(prefix + ".events", events);
  rep_.metric(prefix + ".bytes", bytes, "bytes");
  rep_.metric(prefix + ".bytes_per_event", events > 0 ? bytes / events : 0.0);
  rep_.metric(prefix + ".dropped", static_cast<double>(st.dropped));
  writer_.reset();
  const std::string sxt = rep_.aux_path("trace.sxt");
  if (!ok) {
    std::fprintf(stderr, "%s: failed to write %s\n", rep_.name().c_str(),
                 sxt.c_str());
    return;
  }
  std::printf("stream trace: %s\n", sxt.c_str());
  if (trace::mode() != trace::Mode::Full) return;
  try {
    trace::convert_sxt_file(sxt, rep_.trace_path());
    std::printf("chrome trace: %s\n", rep_.trace_path().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", rep_.name().c_str(), e.what());
  }
}

void print_attribution(std::ostream& os, const sxs::Machine& machine) {
  if (trace::mode() == trace::Mode::Off) return;
  std::vector<const trace::Collector*> cpus;
  for (int n = 0; n < machine.node_count(); ++n) {
    const sxs::Node& node = machine.node(n);
    for (int i = 0; i < node.cpu_count(); ++i) {
      cpus.push_back(&node.cpu(i).trace());
    }
  }
  print_rows(os, trace::build_attribution(cpus), "cycles");
}

}  // namespace ncar::bench
