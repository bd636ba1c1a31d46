#ifndef SECXML_PERFBENCH_WORKLOADS_H_
#define SECXML_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "inputs.h"

namespace secxml::perfbench {

/// Set-ups per run; setup_s and the per-phase set-up metrics are medians
/// over them.
inline constexpr int kSetups = 5;

/// Wall time of one set-up, phase by phase: from the generated inputs to a
/// store whose lazy caches (views, hidden intervals, columns, and for
/// acl_storm the result and plan caches) are filled.
struct SetupTimes {
  double parse_s = 0;  ///< ParseXml of the XML text
  double label_s = 0;  ///< DolLabeling::BuildFromEvents
  double build_s = 0;  ///< SecureStore::BuildWithWal / ShardedStore::Build
  double warm_s = 0;   ///< one request per pool subject and semantics

  double total() const { return parse_s + label_s + build_s + warm_s; }
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What one workload run measured. Per-layer values go into `layer` by the
/// names of kLayerMetrics (report.h); a name left out reads 0 (the layer is
/// not exercised by that workload).
struct Outcome {
  std::vector<SetupTimes> setups;
  /// Client-side latency of every request, send to answer. In a traced run
  /// half of the requests are traced; the two sets give trace.overhead_pct
  /// (on acl_storm they hold its binding requests only).
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double measured_s = 0;
  uint64_t subject_answers = 0;
  /// acl_storm only: due time to commit return, per update.
  std::vector<double> update_ms;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failure kind

  double peak_rss_mb = 0;
  double store_bytes_per_node = 0;
  std::map<std::string, double> layer;

  /// Determinism witnesses: digest of the answers of the fixed request
  /// prefix the counts are taken over.
  uint64_t answer_digest = 0;
  uint64_t count_prefix = 0;

  /// Provenance. The acl_storm writer's rate follows the reader: one update
  /// per reads_per_update reader requests; writer_rate_per_s is measured.
  uint64_t store_pages = 0;
  uint64_t pool_pages = 0;
  uint64_t reads_per_update = 0;
  double writer_rate_per_s = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 16) errors.push_back(what);
  }
};

/// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

/// Runs workload `options.workload` on `inputs`. A non-OK status means the
/// run could not be set up at all; failures during measurement are counted
/// in the outcome instead.
Status RunWorkload(const Inputs& inputs, const RunOptions& options,
                   Outcome* out);

}  // namespace secxml::perfbench

#endif  // SECXML_PERFBENCH_WORKLOADS_H_
