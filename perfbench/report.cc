#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace secxml::perfbench {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s", false},
    {"query_p50_ms", "ms", false},
    {"query_p99_ms", "ms", false},
    {"subject_answers_per_s", "1/s", false},
    {"peak_rss_mb", "MB", false},
    {"store_bytes_per_node", "B", false},
};

// Counts are per request unless the name says otherwise; see README.md for
// the end-to-end metric and workload each one should move.
const std::vector<MetricDef> kLayerMetrics = {
    {"xml.parse_s", "s", false},
    {"core.label_s", "s", false},
    {"nok.build_s", "s", false},
    {"core.warm_s", "s", false},
    {"nok.pages", "count", true},
    {"core.codebook_entries", "count", true},
    {"core.dol_transitions", "count", true},
    {"query.prepare_us", "us", false},
    {"query.evaluate_ms", "ms", false},
    {"query.join_nodes", "count", true},
    {"exec.nodes_scanned", "count", true},
    {"exec.codes_checked", "count", true},
    {"exec.checks_elided", "count", true},
    {"exec.fetch_waits", "count", true},
    {"exec.extra_access_io", "count", true},
    {"storage.page_reads", "count", true},
    {"storage.buffer_hit_ratio", "ratio", true},
    {"storage.pages_skipped", "count", true},
    {"core.visibility_ms", "ms", false},
    {"core.visibility_nodes", "count", true},
    {"core.group_us", "us", false},
    {"query.batch_ms", "ms", false},
    {"query.classes_per_request", "count", true},
    {"query.class_dedup_ratio", "ratio", true},
    {"core.commit_ms", "ms", false},
    {"core.views_patched_per_commit", "count", false},
    {"core.epoch_advances", "count", false},
    {"core.active_pins_at_exit", "count", true},
    {"core.commit_overlap_p99_ms", "ms", false},
    {"core.commit_clear_p99_ms", "ms", false},
    {"storage.wal_bytes_per_update", "B", false},
    {"storage.wal_syncs_per_update", "count", false},
    {"cache.hit_ratio", "ratio", false},
    {"cache.invalidated_per_commit", "count", false},
    {"cache.rejected_inserts", "count", false},
    {"cache.plan_hit_ratio", "ratio", false},
    {"cache.hit_p50_ms", "ms", false},
    {"cache.miss_p50_ms", "ms", false},
    {"serve.evaluate_ms", "ms", false},
    {"serve.shard_read_imbalance", "ratio", true},
    {"serve.merge_comparisons", "count", true},
    {"update_p50_ms", "ms", false},
    {"update_p95_ms", "ms", false},
    {"load.writer_late_p50_ms", "ms", false},
    {"load.writer_late_max_ms", "ms", false},
    {"trace.overhead_pct", "%", false},
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::vector<Metric> EndToEndMetrics(const Outcome& o) {
  std::vector<double> setups;
  for (const SetupTimes& t : o.setups) setups.push_back(t.total());
  const std::vector<double> values = {
      Median(setups),
      Percentile(o.untraced_ms, 0.50),
      Percentile(o.untraced_ms, 0.99),
      o.measured_s > 0 ? static_cast<double>(o.subject_answers) / o.measured_s
                       : 0.0,
      o.peak_rss_mb,
      o.store_bytes_per_node,
  };
  std::vector<Metric> out;
  for (size_t i = 0; i < kEndToEndMetrics.size(); ++i) {
    out.push_back({kEndToEndMetrics[i].name, values[i],
                   kEndToEndMetrics[i].unit});
  }
  return out;
}

std::vector<Metric> LayerMetrics(const Outcome& o) {
  std::map<std::string, double> layer = o.layer;
  auto median_phase = [&](double SetupTimes::*phase) {
    std::vector<double> v;
    for (const SetupTimes& t : o.setups) v.push_back(t.*phase);
    return Median(v);
  };
  layer["xml.parse_s"] = median_phase(&SetupTimes::parse_s);
  layer["core.label_s"] = median_phase(&SetupTimes::label_s);
  layer["nok.build_s"] = median_phase(&SetupTimes::build_s);
  layer["core.warm_s"] = median_phase(&SetupTimes::warm_s);
  layer["update_p50_ms"] = Percentile(o.update_ms, 0.50);
  layer["update_p95_ms"] = Percentile(o.update_ms, 0.95);
  const double untraced_p50 = Percentile(o.untraced_ms, 0.5);
  if (!o.traced_ms.empty() && untraced_p50 > 0) {
    layer["trace.overhead_pct"] =
        (Percentile(o.traced_ms, 0.5) / untraced_p50 - 1.0) * 100.0;
  }
  std::vector<Metric> out;
  for (const MetricDef& d : kLayerMetrics) {
    auto it = layer.find(d.name);
    out.push_back({d.name, it == layer.end() ? 0.0 : it->second, d.unit});
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         metrics[i].unit + "\"}";
  }
  return s + "}";
}

}  // namespace secxml::perfbench
