#pragma once
/// \file export.hpp
/// \brief Counting-plane exporters: schema-versioned JSONL snapshots and a
/// BENCH_*.json-convention summary.
///
/// Two formats (schemas in docs/observability.md):
///
///  * **JSONL snapshots** — one self-contained JSON object per line,
///    `{"schema":"biochip.metrics.v1","tick":T,"metrics":[...]}`. Appending
///    a line allocates nothing that scales with the horizon, so a 200k-tick
///    soak can snapshot periodically with flat memory; downstream tooling
///    (`tools/check_obs.py`) streams the file line by line.
///  * **summary JSON** — the final snapshot in the `BENCH_*.json` convention
///    (a "context" object plus a flat array of named entries), so the same
///    scripts that diff bench trajectories can diff telemetry summaries.
///
/// Exported values are exact: every value and histogram bucket is an
/// integer.

#include <ostream>
#include <string_view>

#include "obs/metrics.hpp"

namespace biochip::obs {

/// One JSONL line (newline-terminated) holding the full snapshot.
void write_snapshot_jsonl(std::ostream& os, const MetricsSnapshot& snapshot);

/// BENCH-convention summary: {"context": {...}, "metrics": [...]}. `label`
/// names the run (mirrors google-benchmark's per-entry "name" keys).
void write_summary_json(std::ostream& os, const MetricsSnapshot& snapshot,
                        std::string_view label);

}  // namespace biochip::obs
