// Exporters -- pillar 3 of the telemetry layer.
//
// Output formats over a (Snapshot, spans) pair:
//   * to_text:          human-readable summary (counters/gauges/histograms +
//                       an indented span tree), for terminal inspection;
//   * to_jsonl:         machine-readable JSON lines, one object per metric /
//                       span -- the diffable BENCH_*.json format the bench
//                       binaries write via --json;
//   * to_chrome_trace:  Chrome about:tracing / Perfetto trace_event JSON;
//                       the multi-process overload merges span sets from
//                       several processes into one trace (distinct pids);
//   * to_prometheus:    Prometheus text exposition format, served by the
//                       admin endpoint (DESIGN.md §10).
//
// import_jsonl parses to_jsonl output back (exact round-trip, histograms
// included), which is what makes bench output comparable across PRs by
// tools/bench_diff rather than by eyeball. parse_prometheus and
// prometheus_lint close the loop on the scrape side: the CI observability
// job lints a live scrape and cross-checks counter values.
//
// The exporters compile identically with telemetry off -- they simply see
// empty snapshots -- so a --json flag keeps working in a no-op build.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace dlr::telemetry {

/// Run-level metadata stamped into the first line of every JSONL export.
struct ExportMeta {
  std::string run;  // e.g. the bench binary's name
};

[[nodiscard]] std::string to_text(const Snapshot& snap, const std::vector<Span>& spans);
[[nodiscard]] std::string to_jsonl(const ExportMeta& meta, const Snapshot& snap,
                                   const std::vector<Span>& spans);
[[nodiscard]] std::string to_chrome_trace(const std::vector<Span>& spans);

/// One process's contribution to a merged multi-process Chrome trace.
struct ProcessSpans {
  int pid = 1;
  std::string name;  // emitted as process_name metadata, e.g. "P1 client"
  std::vector<Span> spans;
};
/// Merge span sets from several processes into one Chrome trace. Spans keep
/// their own ids, so a cross-process trace (propagated via TraceContext)
/// renders as one tree across pid lanes.
[[nodiscard]] std::string to_chrome_trace(const std::vector<ProcessSpans>& processes);

/// Snapshot the global registry (metrics only -- no spans) and write JSONL
/// to `path`. Returns false on I/O failure.
bool export_global_jsonl(const std::string& path, const std::string& run_label);

/// Parsed-back view of a JSONL export. Histograms round-trip exactly
/// (bounds/buckets/sum/count); span ids/trace ids are parsed as full 64-bit
/// integers (never through a double, which would shave their random high
/// bits).
struct Imported {
  std::string run;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramRow> histograms;
  std::vector<Span> spans;  // attrs + trace ids included
};
[[nodiscard]] Imported import_jsonl(const std::string& text);

/// Split a concatenated multi-run JSONL file (the committed BENCH_*.json
/// artifacts append one document per bench run, each starting with a meta
/// line) into one Imported per run. Lines before the first meta line form a
/// nameless run of their own.
[[nodiscard]] std::vector<Imported> import_jsonl_runs(const std::string& text);

/// Prometheus text exposition of a snapshot. Metric names are sanitized
/// (dots -> underscores); rendered "{k=v}" qualifiers become label sets;
/// histograms expand to cumulative _bucket{le=...} / _sum / _count series.
[[nodiscard]] std::string to_prometheus(const Snapshot& snap);

/// Strict structural check of Prometheus exposition text: every line must be
/// a HELP/TYPE comment or a well-formed sample, names must be legal, TYPE
/// must precede its samples, histogram buckets must be cumulative and end in
/// +Inf with _count equal to the +Inf bucket. Returns "" if valid, else a
/// one-line diagnosis ("line N: ...").
[[nodiscard]] std::string prometheus_lint(const std::string& text);

/// Sample values keyed by name-with-labels exactly as written
/// ("svc_requests" or "net_bytes_sent{dir=\"tx\"}").
[[nodiscard]] std::map<std::string, double> parse_prometheus(const std::string& text);

[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace dlr::telemetry
