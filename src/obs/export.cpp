#include "obs/export.hpp"

namespace biochip::obs {

namespace {

/// Metric names are dotted identifiers and event slugs (snake_case); escape
/// defensively anyway so a hostile name cannot corrupt the stream.
void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

void write_metric(std::ostream& os, const Metric& m) {
  os << "{\"name\":";
  write_escaped(os, m.name);
  os << ",\"index\":" << m.index << ",\"kind\":\"" << to_string(m.kind)
     << "\",\"plane\":\"" << to_string(m.plane) << "\"";
  switch (m.kind) {
    case MetricKind::kCounter:
      os << ",\"value\":" << m.value;
      break;
    case MetricKind::kGauge:
      os << ",\"value\":" << m.ivalue;
      break;
    case MetricKind::kHistogram: {
      os << ",\"bounds\":[";
      for (std::size_t i = 0; i < m.bounds.size(); ++i)
        os << (i ? "," : "") << m.bounds[i];
      os << "],\"buckets\":[";
      for (std::size_t i = 0; i < m.buckets.size(); ++i)
        os << (i ? "," : "") << m.buckets[i];
      os << "]";
      break;
    }
  }
  os << "}";
}

}  // namespace

void write_snapshot_jsonl(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << "{\"schema\":\"biochip.metrics.v" << snapshot.schema
     << "\",\"tick\":" << snapshot.tick << ",\"metrics\":[";
  for (std::size_t i = 0; i < snapshot.metrics.size(); ++i) {
    if (i) os << ",";
    write_metric(os, snapshot.metrics[i]);
  }
  os << "]}\n";
}

void write_summary_json(std::ostream& os, const MetricsSnapshot& snapshot,
                        std::string_view label) {
  os << "{\n  \"context\": {\n    \"schema\": \"biochip.metrics.v"
     << snapshot.schema << "\",\n    \"label\": ";
  write_escaped(os, label);
  os << ",\n    \"tick\": " << snapshot.tick << "\n  },\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < snapshot.metrics.size(); ++i) {
    os << "    ";
    write_metric(os, snapshot.metrics[i]);
    os << (i + 1 < snapshot.metrics.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

}  // namespace biochip::obs
