#ifndef SECXML_PERFBENCH_REPORT_H_
#define SECXML_PERFBENCH_REPORT_H_

#include <string>
#include <vector>

#include "workloads.h"

namespace secxml::perfbench {

/// One reported metric: name, unit, and whether it is a count that repeats
/// exactly for a given seed on the single-client read-only workloads.
struct MetricDef {
  const char* name;
  const char* unit;
  bool count;
};

/// End-to-end metrics printed by an untraced run (BENCHMARK.json
/// "end_to_end", in order).
extern const std::vector<MetricDef> kEndToEndMetrics;
/// Per-layer metrics printed by a traced run (BENCHMARK.json "per_layer",
/// in order).
extern const std::vector<MetricDef> kLayerMetrics;

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The end-to-end metrics of `o` (from its untraced requests).
std::vector<Metric> EndToEndMetrics(const Outcome& o);
/// The per-layer metrics of `o`, in kLayerMetrics order.
std::vector<Metric> LayerMetrics(const Outcome& o);

/// Renders {"name": {"value": v, "unit": u}, ...}.
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace secxml::perfbench

#endif  // SECXML_PERFBENCH_REPORT_H_
