// secxml_perfbench: generates one workload's inputs from a seed, measures it
// for a number of seconds, checks its answers, and prints the result. The
// last line of standard output is the machine-readable result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   secxml_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--source-id <text>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "exec/mask_ops.h"
#include "inputs.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace secxml::perfbench {
namespace {

struct Args {
  RunOptions run;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->run.workload = v;
      have_workload = true;
    } else if (key == "--seed") {
      a->run.seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      a->run.seconds = std::strtod(v, &end);
      if (!(a->run.seconds > 0)) return false;
    } else if (key == "--trace") {
      a->run.trace = std::strcmp(v, "1") == 0;
      if (!a->run.trace && std::strcmp(v, "0") != 0) return false;
    } else if (key == "--source-id") {
      a->source_id = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  if (argc % 2 != 1 || !have_workload) return false;
  for (const std::string& w : WorkloadNames()) {
    if (w == a->run.workload) return true;
  }
  return false;
}

std::string JsonString(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += c;
  }
  return q + "\"";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: secxml_perfbench --workload <single_subject|"
                 "role_batch|acl_storm|sharded_scan> --seed <n> --seconds <s> "
                 "--trace <0|1> [--source-id <text>]\n");
    return 2;
  }

  const int64_t g0 = NowNs();
  Inputs inputs;
  Status st = GenerateInputs(args.run.seed, &inputs);
  if (!st.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const double generate_s = static_cast<double>(NowNs() - g0) * 1e-9;

  Outcome o;
  st = RunWorkload(inputs, args.run, &o);
  if (!st.ok()) {
    std::fprintf(stderr, "%s set-up failed: %s\n", args.run.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }

  char digests[96];
  std::snprintf(digests, sizeof digests,
                "\"input_digest\": \"%016llx\", \"answer_digest\": \"%016llx\"",
                static_cast<unsigned long long>(inputs.digest),
                static_cast<unsigned long long>(o.answer_digest));
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"source\": %s, \"compiler\": %s, \"flags\": %s, "
      "\"build_type\": %s, \"nproc\": %u, \"mask_isa\": %s, \"nodes\": %u, "
      "\"store_pages\": %llu, \"pool_pages\": %llu, "
      "\"reads_per_update\": %llu, \"writer_rate_per_s\": %.2f, "
      "\"setups\": %d, \"generate_s\": %.3f, %s}\n",
      JsonString(args.run.workload).c_str(),
      static_cast<unsigned long long>(args.run.seed), args.run.seconds,
      args.run.trace ? 1 : 0, JsonString(args.source_id).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_CXX_FLAGS).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      std::thread::hardware_concurrency(),
      JsonString(MaskIsaName(ActiveMaskIsa())).c_str(), inputs.num_nodes,
      static_cast<unsigned long long>(o.store_pages),
      static_cast<unsigned long long>(o.pool_pages),
      static_cast<unsigned long long>(o.reads_per_update), o.writer_rate_per_s,
      kSetups, generate_s, digests);

  // Human-readable summary: all nine end-to-end figures of the workload,
  // including the three that are not gated metrics (see README.md).
  const std::vector<Metric> e2e = EndToEndMetrics(o);
  const std::vector<Metric> layer = LayerMetrics(o);
  for (const Metric& m : e2e) {
    std::printf("  %-24s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (o.update_ms.empty()) {
    std::printf("  %-24s %14s ms\n  %-24s %14s ms\n", "update_p50_ms", "n/a",
                "update_p95_ms", "n/a");
  } else {
    std::printf("  %-24s %14.4f ms\n  %-24s %14.4f ms\n", "update_p50_ms",
                Percentile(o.update_ms, 0.50), "update_p95_ms",
                Percentile(o.update_ms, 0.95));
  }
  const double failed_ratio =
      o.attempted > 0 ? static_cast<double>(o.failed) /
                            static_cast<double>(o.attempted)
                      : 1.0;
  std::printf("  %-24s %14.6f ratio  (%llu of %llu operations)\n",
              "failed_op_ratio", failed_ratio,
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));
  std::printf("  requests: %zu untraced + %zu traced in %.3f s\n",
              o.untraced_ms.size(), o.traced_ms.size(), o.measured_s);
  for (const std::string& e : o.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }

  // Counts that must repeat exactly for a seed (the determinism self-test
  // compares this line between runs).
  std::string counts = "{";
  for (size_t i = 0; i < layer.size(); ++i) {
    if (!kLayerMetrics[i].count) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g",
                  counts.size() > 1 ? ", " : "", layer[i].name.c_str(),
                  layer[i].value);
    counts += buf;
  }
  std::printf("counts {\"prefix_requests\": %llu, %s, \"layer\": %s}}\n",
              static_cast<unsigned long long>(o.count_prefix), digests,
              counts.c_str());

  const bool correct = o.failed == 0 && o.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              MetricsJson(args.run.trace ? layer : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace secxml::perfbench

int main(int argc, char** argv) { return secxml::perfbench::Main(argc, argv); }
