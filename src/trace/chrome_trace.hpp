#pragma once
// Chrome trace_event exporter.
//
// Serialises the spans of a decoded .sxt file (trace/stream/reader.hpp) as
// a JSON object trace ({"traceEvents":[...]}) in the Trace Event Format
// understood by Perfetto and chrome://tracing. This is the only exporter:
// SX4NCAR_TRACE=full converts the run's finished .sxt through it, and so
// does `sxtrace convert`. Mapping:
//   * one pid per node (process_name metadata, e.g. "node0"),
//   * one tid per track within the node (thread_name metadata, "cpu3",
//     "runtime", "sfs", "scheduler", ...),
//   * every span becomes a complete event (ph "X") whose name is the op
//     tag and whose cat is the Category name, with ts/dur in microseconds
//     of simulated time (ticks * seconds_per_tick * 1e6).
//
// A track keeps at most its recorded max_spans spans (the first ones, in
// record order); the rest, plus any spans the sink dropped, are reported in
// a trace_dropped_spans metadata event, so a truncated trace never reads
// as a short run. Tracks flagged skip-if-empty that carry no spans are
// omitted (the empty-CPU-track rule).
//
// Output is deterministic: tracks are emitted in file order, spans in
// record order, and doubles are rendered with the shortest round-trip
// representation (std::to_chars), so byte-comparing two trace files is a
// valid determinism check.

#include <iosfwd>
#include <string>

#include "trace/stream/reader.hpp"

namespace ncar::trace {

/// Write the trace JSON for every track of `file` to `os`.
void write_chrome_trace(std::ostream& os, const stream::SxtFile& file);

/// Read the .sxt at `sxt_path` and write its trace JSON to `json_path`.
/// Throws stream::FormatError when the input cannot be read or parsed,
/// std::runtime_error when the output cannot be written.
void convert_sxt_file(const std::string& sxt_path,
                      const std::string& json_path);

/// Shortest round-trip decimal rendering of `v` (exposed for tests; the
/// bench harness JSON writer follows the same convention, so attribution
/// values survive the JSON round trip bit-exactly).
std::string format_double(double v);

}  // namespace ncar::trace
