// Microbenchmarks for the access-check hot path of Section 3.3: in-memory
// header fast path vs in-page transition search, logical CodeAt binary
// search, codebook interning, full secure vs non-secure NPM matching, and
// the subject's codebook column (the table every secure cursor checks
// against) against the direct codebook probe.
//
// Two layers:
//  - a manual probe (runs first, also in --smoke mode) that times the
//    innermost per-node ACCESS check through the codebook bit probe vs the
//    column bit test and writes BENCH_lookup_micro.json,
//  - the google-benchmark suite for the surrounding machinery (skipped in
//    --smoke mode so the CI smoke target stays fast).

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "query/evaluator.h"
#include "storage/paged_file.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

struct Fixture {
  Document doc;
  DolLabeling labeling;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

Fixture* GetFixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture();
    XMarkOptions xopts;
    xopts.target_nodes = 100000;
    (void)GenerateXMark(xopts, &fx->doc);
    SyntheticAclOptions aopts;
    aopts.accessibility_ratio = 0.5;
    IntervalAccessMap map = GenerateSyntheticAclMap(fx->doc, 16, aopts);
    fx->labeling = DolLabeling::BuildFromEvents(
        map.num_nodes(), map.InitialAcl(), map.CollectEvents());
    NokStoreOptions sopts;
    sopts.buffer_pool_pages = 4096;  // fully cached: measure CPU path
    (void)SecureStore::Build(fx->doc, fx->labeling, &fx->file, sopts,
                             &fx->store);
    return fx;
  }();
  return f;
}

void BM_AccessCheckCached(benchmark::State& state) {
  Fixture* f = GetFixture();
  Rng rng(1);
  for (auto _ : state) {
    NodeId n = static_cast<NodeId>(rng.Uniform(f->store->num_nodes()));
    auto r = f->store->Accessible(7, n);
    benchmark::DoNotOptimize(r.ok() && *r);
  }
}
BENCHMARK(BM_AccessCheckCached);

void BM_LogicalCodeAt(benchmark::State& state) {
  Fixture* f = GetFixture();
  Rng rng(2);
  for (auto _ : state) {
    NodeId n = static_cast<NodeId>(rng.Uniform(f->labeling.num_nodes()));
    benchmark::DoNotOptimize(f->labeling.CodeAt(n));
  }
}
BENCHMARK(BM_LogicalCodeAt);

void BM_CodebookIntern(benchmark::State& state) {
  Codebook cb(static_cast<size_t>(state.range(0)));
  Rng rng(3);
  BitVector acl(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    acl.Set(rng.Uniform(acl.size()), rng.Bernoulli(0.5));
    benchmark::DoNotOptimize(cb.Intern(acl));
  }
}
BENCHMARK(BM_CodebookIntern)->Arg(64)->Arg(1024)->Arg(8639);

void BM_PageHeaderSkipTest(benchmark::State& state) {
  Fixture* f = GetFixture();
  Rng rng(4);
  size_t pages = f->store->nok()->num_pages();
  for (auto _ : state) {
    size_t p = rng.Uniform(pages);
    benchmark::DoNotOptimize(f->store->PageWhollyInaccessible(p, 7));
  }
}
BENCHMARK(BM_PageHeaderSkipTest);

void BM_TwigQuery(benchmark::State& state) {
  Fixture* f = GetFixture();
  QueryEvaluator eval(f->store.get());
  EvalOptions opts;
  opts.semantics = state.range(0) == 0 ? AccessSemantics::kNone
                                       : AccessSemantics::kBinding;
  for (auto _ : state) {
    auto r = eval.EvaluateXPath(
        "/site/regions/africa/item[location][name][quantity]", opts);
    benchmark::DoNotOptimize(r.ok() ? r->answers.size() : 0);
  }
}
BENCHMARK(BM_TwigQuery)->Arg(0)->Arg(1);

// --- Manual probe: per-node ACCESS check, codebook vs column -------------
//
// The production-shaped case: a multi-user store whose codebook has many
// distinct ACLs over many subjects (the paper's Livelink dataset interned
// 8639 ACLs). The codebook path chases two dependent pointers per check
// (entry vector -> per-entry ACL words), so at this size every probe
// misses cache; the subject's column (one bit per entry) stays resident.

struct ProbeResult {
  double codebook_ns = 0;
  double column_ns = 0;
  double speedup = 0;
  size_t entries = 0;
  size_t subjects = 0;
  uint64_t iterations = 0;
};

ProbeResult RunAccessCheckProbe(bool smoke) {
  constexpr size_t kSubjects = 1024;
  const size_t target_entries = smoke ? 1024 : 8639;
  Codebook cb(kSubjects);
  Rng rng(99);
  BitVector acl(kSubjects);
  while (cb.size() < target_entries) {
    for (int flips = 0; flips < 8; ++flips) {
      acl.Set(rng.Uniform(kSubjects), rng.Bernoulli(0.5));
    }
    (void)cb.Intern(acl);
  }
  const SubjectId subject = 7;
  const BitVector column = cb.Column(subject);
  // The cursors' check: one bit test, out-of-range codes deny.
  auto column_check = [&](uint32_t c) {
    return c < column.size() && column.GetUnchecked(c) ? 1 : 0;
  };

  // Pre-drawn random code sequence, power-of-two length so the replay
  // costs one mask per lookup in both variants.
  constexpr size_t kSeqLen = 1 << 16;
  std::vector<uint32_t> codes(kSeqLen);
  for (uint32_t& c : codes) {
    c = static_cast<uint32_t>(rng.Uniform(cb.size()));
  }

  const uint64_t iters = smoke ? (1u << 21) : (1u << 25);
  // The next probed code depends on the previous check's result, so the
  // loop measures the check's latency chain (what Npm's serial
  // child-by-child ACCESS checks pay), not peak pipelined load throughput.
  auto run = [&](auto&& check) {
    uint64_t acc = 0;
    size_t idx = 0;
    Timer timer;
    for (uint64_t i = 0; i < iters; ++i) {
      uint64_t v = check(codes[idx]);
      acc += v;
      idx = (idx + 1 + v * 13) & (kSeqLen - 1);
    }
    double seconds = timer.ElapsedSeconds();
    benchmark::DoNotOptimize(acc);
    return seconds / static_cast<double>(iters) * 1e9;
  };

  ProbeResult r;
  r.entries = cb.size();
  r.subjects = kSubjects;
  r.iterations = iters;
  // Warm both paths once, then measure.
  (void)run([&](uint32_t c) { return cb.Accessible(c, subject) ? 1 : 0; });
  (void)run(column_check);
  r.codebook_ns =
      run([&](uint32_t c) { return cb.Accessible(c, subject) ? 1 : 0; });
  r.column_ns = run(column_check);
  r.speedup = r.column_ns > 0 ? r.codebook_ns / r.column_ns : 0;
  return r;
}

int RunManualProbes(bool smoke) {
  bench::Banner(std::string("Per-node ACCESS check: codebook bit probe vs "
                            "subject column bit test") +
                (smoke ? " [smoke]" : ""));
  ProbeResult r = RunAccessCheckProbe(smoke);
  std::printf("codebook entries=%zu subjects=%zu iterations=%llu\n",
              r.entries, r.subjects,
              static_cast<unsigned long long>(r.iterations));
  std::printf("codebook path: %.2f ns/check\n", r.codebook_ns);
  std::printf("column bit:    %.2f ns/check\n", r.column_ns);
  std::printf("speedup:       %.2fx\n", r.speedup);
  if (r.speedup < 2.0) {
    std::printf("WARNING: below the 2x acceptance threshold\n");
  }
  bench::WriteBenchJson(
      "lookup_micro",
      bench::Json()
          .Set("bench", "lookup_micro")
          .Set("smoke", smoke)
          .Set("codebook_entries", static_cast<uint64_t>(r.entries))
          .Set("subjects", static_cast<uint64_t>(r.subjects))
          .Set("iterations", r.iterations)
          .Set("codebook_ns_per_check", r.codebook_ns)
          .Set("column_ns_per_check", r.column_ns)
          .Set("column_speedup", r.speedup));
  return 0;
}

}  // namespace
}  // namespace secxml

int main(int argc, char** argv) {
  bool smoke = false;
  // Strip --smoke before google-benchmark sees the arguments.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  int rc = secxml::RunManualProbes(smoke);
  if (rc != 0 || smoke) return rc;  // smoke: manual probe only

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
