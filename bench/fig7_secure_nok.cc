// Reproduces Figure 7(a)-(c) and Table 1 (Q1-Q3): processing-time ratio and
// answers-returned ratio between ε-NoK (secure) and NoK (non-secure) twig
// evaluation, as the percentage of accessible nodes varies 50%-80%.
//
// Paper shape: the secure/non-secure time ratio stays around 1.0x-1.02x
// independent of the accessibility ratio (accessibility checks need no extra
// I/O), while the answers-returned ratio tracks accessibility; at low
// accessibility the secure evaluator can beat the non-secure one thanks to
// in-memory page-header skipping.
//
// Note on Q3: the literal Table 1 string
// /site/categories/category/name[description/text/bold] matches nothing on
// XMark documents (description is a sibling of name, not its child); we run
// the evidently intended form with the predicate on category. See
// EXPERIMENTS.md.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "query/evaluator.h"
#include "storage/paged_file.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr const char* kQueries[] = {
    "/site/regions/africa/item[location][name][quantity]",    // Q1
    "/site/categories/category[name]/description/text/bold",  // Q2
    "/site/categories/category[description/text/bold]/name",  // Q3 (see note)
};

struct Fixture {
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

std::unique_ptr<Fixture> Build(const Document& doc, double accessibility,
                               size_t extra_subjects, uint64_t acl_seed) {
  auto f = std::make_unique<Fixture>();
  // Subject 0 is the querying user at the requested accessibility ratio;
  // additional subjects give the codebook its multi-user structure (the
  // paper's evaluation is explicitly multi-user).
  SyntheticAclOptions aopts;
  aopts.propagation_ratio = 0.03;
  aopts.accessibility_ratio = accessibility;
  aopts.seed = acl_seed;
  IntervalAccessMap map =
      GenerateSyntheticAclMap(doc, 1 + extra_subjects, aopts);
  DolLabeling labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  // Pool smaller than the document so evaluation exercises the I/O path.
  sopts.buffer_pool_pages = 64;
  Status st = SecureStore::Build(doc, labeling, &f->file, sopts, &f->store);
  if (!st.ok()) return nullptr;
  return f;
}

// Clustered-ACL fixture: every subject shares ONE synthetic ACL draw, so
// all accessibility transitions coincide across subjects and most pages
// keep a clear change bit — the regime where whole pages are provably dead
// from the in-memory header and the page skip actually fires. This models
// rights granted at subtree granularity to a uniform audience (one role).
std::unique_ptr<Fixture> BuildClustered(const Document& doc,
                                        double accessibility,
                                        size_t num_subjects,
                                        uint64_t acl_seed) {
  auto f = std::make_unique<Fixture>();
  SyntheticAclOptions aopts;
  aopts.propagation_ratio = 0.03;
  aopts.accessibility_ratio = accessibility;
  aopts.seed = acl_seed;
  std::vector<NodeInterval> intervals = GenerateSyntheticAcl(doc, aopts);
  IntervalAccessMap map(static_cast<NodeId>(doc.NumNodes()), num_subjects);
  for (SubjectId s = 0; s < num_subjects; ++s) {
    map.SetSubjectIntervals(s, intervals);
  }
  DolLabeling labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.buffer_pool_pages = 64;
  Status st = SecureStore::Build(doc, labeling, &f->file, sopts, &f->store);
  if (!st.ok()) return nullptr;
  return f;
}

struct RunResult {
  double seconds = 0;
  size_t answers = 0;
  uint64_t page_reads = 0;
  uint64_t pages_skipped = 0;
  /// Per-operator rollup of the last counted rep (counter values are
  /// rep-invariant: same query, same store state).
  ExecStats exec;
};

/// Times `query` under each option set with the rep loop OUTERMOST —
/// variants alternate within every rep, so slow machine-load drift hits
/// all of them equally instead of whichever variant ran last. Per-variant
/// time is the MINIMUM rep: for CPU-bound work all timing noise is
/// additive (preemption, cache pollution), so the floor is the stablest
/// estimator of true cost — a mean or median would let one preempted rep
/// wobble sub-millisecond ratios by several percent.
std::vector<RunResult> RunQuery(SecureStore* store, const std::string& query,
                                const std::vector<EvalOptions>& variants,
                                int repetitions) {
  QueryEvaluator eval(store);
  std::vector<RunResult> results(variants.size());
  std::vector<std::vector<double>> times(variants.size());
  Timer timer;
  for (int r = -1; r < repetitions; ++r) {  // rep -1 = untimed warm-up
    for (size_t v = 0; v < variants.size(); ++v) {
      (void)store->nok()->buffer_pool()->EvictAll();
      store->nok()->buffer_pool()->mutable_stats()->Reset();
      timer.Reset();
      auto got = eval.EvaluateXPath(query, variants[v]);
      double elapsed = timer.ElapsedSeconds();
      if (!got.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     got.status().ToString().c_str());
        continue;
      }
      if (r < 0) continue;
      times[v].push_back(elapsed);
      results[v].answers = got->answers.size();
      results[v].page_reads = store->io_stats().page_reads;
      results[v].pages_skipped = store->io_stats().pages_skipped;
      results[v].exec = got->exec;
    }
  }
  for (size_t v = 0; v < variants.size(); ++v) {
    if (times[v].empty()) continue;
    results[v].seconds = *std::min_element(times[v].begin(), times[v].end());
  }
  return results;
}

int Run(int argc, char** argv) {
  uint32_t nodes = bench::ScaleArg(argc, argv, 200000);
  bench::Banner("Figure 7 / Table 1 (Q1-Q3): e-NoK vs NoK as accessibility "
                "varies (" + std::to_string(nodes) + "-node XMark, 16 "
                "subjects, 4 KB pages, 64-page buffer pool)");

  XMarkOptions xopts;
  xopts.target_nodes = nodes;
  Document doc;
  if (!GenerateXMark(xopts, &doc).ok()) return 1;

  constexpr int kReps = 11;
  constexpr int kAclDraws = 5;  // average over independent ACL instances
  EvalOptions plain_opts;  // non-secure NoK
  EvalOptions secure_opts;  // e-NoK against the subject's codebook column
  secure_opts.semantics = AccessSemantics::kBinding;

  std::vector<bench::Json> points;
  // Summed over every secure run of the bench; the DOL layout makes this
  // structurally 0 (Section 3.3), and the artifact records it as measured.
  uint64_t extra_access_io = 0;
  for (int qi = 0; qi < 3; ++qi) {
    std::printf("\nQ%d: %s\n", qi + 1, kQueries[qi]);
    std::printf("%-6s %12s %14s %10s %10s %11s %11s\n", "acc%", "time ratio",
                "answer ratio", "NoK ms", "eNoK ms", "eNoK reads",
                "eNoK skips");
    // 50-80% is the published sweep; 90/100% isolate the pure overhead of
    // the accessibility checks (at 100% nothing is pruned, so the time
    // ratio is exactly the paper's "worst case ~2%" figure).
    for (int acc : {50, 60, 70, 80, 90, 100}) {
      double plain_s = 0, secure_s = 0;
      double plain_ans = 0, secure_ans = 0;
      uint64_t reads = 0, skips = 0;
      ExecStats exec;  // summed over draws, secure variant
      for (int draw = 0; draw < kAclDraws; ++draw) {
        auto f = Build(doc, acc / 100.0, /*extra_subjects=*/15,
                       4242 + static_cast<uint64_t>(draw));
        if (f == nullptr) return 1;
        std::vector<RunResult> runs = RunQuery(
            f->store.get(), kQueries[qi], {plain_opts, secure_opts}, kReps);
        RunResult plain = runs[0], secure = runs[1];
        plain_s += plain.seconds;
        secure_s += secure.seconds;
        plain_ans += static_cast<double>(plain.answers);
        secure_ans += static_cast<double>(secure.answers);
        reads += secure.page_reads;
        skips += secure.pages_skipped;
        exec += secure.exec;
        extra_access_io += secure.exec.access_only_fetches;
      }
      double ratio = plain_s > 0 ? secure_s / plain_s : 0.0;
      std::printf("%-6d %12.3f %14.3f %10.2f %10.2f %11.1f %11.1f\n", acc,
                  ratio, plain_ans > 0 ? secure_ans / plain_ans : 0.0,
                  plain_s / kAclDraws * 1000, secure_s / kAclDraws * 1000,
                  static_cast<double>(reads) / kAclDraws,
                  static_cast<double>(skips) / kAclDraws);
      points.push_back(
          bench::Json()
              .Set("query", "Q" + std::to_string(qi + 1))
              .Set("accessibility_pct", acc)
              .Set("nok_ms", plain_s / kAclDraws * 1000)
              .Set("enok_ms", secure_s / kAclDraws * 1000)
              .Set("time_ratio", ratio)
              .Set("answer_ratio",
                   plain_ans > 0 ? secure_ans / plain_ans : 0.0)
              .Set("enok_page_reads",
                   static_cast<double>(reads) / kAclDraws)
              .Set("enok_pages_skipped",
                   static_cast<double>(skips) / kAclDraws)
              .Set("enok_exec", bench::ExecStatsJson(exec)));
    }
  }

  // The low-accessibility regime where page skipping lets e-NoK beat NoK.
  // An unanchored query is used so the tag-index candidates themselves can
  // be skipped via the in-memory headers.
  const std::string low_query = "//item[location][name][quantity]";
  std::printf("\nLow-accessibility regime (page-skipping), %s:\n",
              low_query.c_str());
  std::printf("The page-skip test needs a clear change bit, i.e. no other\n"
              "subject's transition in the page either; with many subjects\n"
              "sharing pages the skip rarely fires and the savings come from\n"
              "structural pruning instead — both variants are shown.\n");
  std::vector<bench::Json> low_points;
  for (size_t extra_subjects : {15u, 0u}) {
    std::printf("\n%zu subject(s):\n", extra_subjects + 1);
    std::printf("%-6s %12s %12s %12s %12s %12s\n", "acc%", "time ratio",
                "NoK reads", "eNoK reads", "eNoK skips", "answers");
    for (int acc : {5, 10, 20}) {
      double plain_s = 0, secure_s = 0;
      uint64_t plain_reads = 0, secure_reads = 0, skips = 0;
      size_t answers = 0;
      ExecStats exec;
      for (int draw = 0; draw < kAclDraws; ++draw) {
        auto f = Build(doc, acc / 100.0, extra_subjects,
                       1000 + static_cast<uint64_t>(draw));
        if (f == nullptr) return 1;
        std::vector<RunResult> runs = RunQuery(
            f->store.get(), low_query, {plain_opts, secure_opts}, kReps);
        RunResult plain = runs[0], secure = runs[1];
        plain_s += plain.seconds;
        secure_s += secure.seconds;
        plain_reads += plain.page_reads;
        secure_reads += secure.page_reads;
        skips += secure.pages_skipped;
        answers += secure.answers;
        exec += secure.exec;
        extra_access_io += secure.exec.access_only_fetches;
      }
      double ratio = plain_s > 0 ? secure_s / plain_s : 0.0;
      std::printf("%-6d %12.3f %12.1f %12.1f %12.1f %12.1f\n", acc, ratio,
                  static_cast<double>(plain_reads) / kAclDraws,
                  static_cast<double>(secure_reads) / kAclDraws,
                  static_cast<double>(skips) / kAclDraws,
                  static_cast<double>(answers) / kAclDraws);
      low_points.push_back(
          bench::Json()
              .Set("query", low_query)
              .Set("subjects", static_cast<uint64_t>(extra_subjects + 1))
              .Set("accessibility_pct", acc)
              .Set("nok_ms", plain_s / kAclDraws * 1000)
              .Set("enok_ms", secure_s / kAclDraws * 1000)
              .Set("time_ratio", ratio)
              .Set("nok_page_reads",
                   static_cast<double>(plain_reads) / kAclDraws)
              .Set("enok_page_reads",
                   static_cast<double>(secure_reads) / kAclDraws)
              .Set("enok_pages_skipped",
                   static_cast<double>(skips) / kAclDraws)
              .Set("enok_exec", bench::ExecStatsJson(exec)));
    }
  }
  // Clustered-ACL sweep point: 16 subjects, one shared ACL draw. Aligned
  // transitions leave most pages with a clear change bit, producing wholly
  // inaccessible pages at low accessibility; pages_skipped > 0 here is an
  // asserted artifact property (exit code), where the independent-subject
  // sweep above legitimately reports 0 skips.
  std::printf("\nClustered ACLs (16 subjects, one shared draw), %s:\n",
              low_query.c_str());
  std::printf("%-6s %12s %12s %12s %12s\n", "acc%", "time ratio",
              "eNoK reads", "eNoK skips", "answers");
  std::vector<bench::Json> clustered_points;
  uint64_t clustered_skips = 0;
  for (int acc : {5, 10, 20}) {
    double plain_s = 0, secure_s = 0;
    uint64_t secure_reads = 0, skips = 0;
    size_t answers = 0;
    ExecStats exec;
    for (int draw = 0; draw < kAclDraws; ++draw) {
      auto f = BuildClustered(doc, acc / 100.0, /*num_subjects=*/16,
                              2000 + static_cast<uint64_t>(draw));
      if (f == nullptr) return 1;
      std::vector<RunResult> runs = RunQuery(
          f->store.get(), low_query, {plain_opts, secure_opts}, kReps);
      RunResult plain = runs[0], secure = runs[1];
      plain_s += plain.seconds;
      secure_s += secure.seconds;
      secure_reads += secure.page_reads;
      skips += secure.pages_skipped;
      answers += secure.answers;
      exec += secure.exec;
      extra_access_io += secure.exec.access_only_fetches;
    }
    clustered_skips += skips;
    std::printf("%-6d %12.3f %12.1f %12.1f %12.1f\n", acc,
                plain_s > 0 ? secure_s / plain_s : 0.0,
                static_cast<double>(secure_reads) / kAclDraws,
                static_cast<double>(skips) / kAclDraws,
                static_cast<double>(answers) / kAclDraws);
    clustered_points.push_back(
        bench::Json()
            .Set("query", low_query)
            .Set("subjects", 16)
            .Set("accessibility_pct", acc)
            .Set("nok_ms", plain_s / kAclDraws * 1000)
            .Set("enok_ms", secure_s / kAclDraws * 1000)
            .Set("time_ratio", plain_s > 0 ? secure_s / plain_s : 0.0)
            .Set("enok_page_reads",
                 static_cast<double>(secure_reads) / kAclDraws)
            .Set("enok_pages_skipped",
                 static_cast<double>(skips) / kAclDraws)
            .Set("enok_exec", bench::ExecStatsJson(exec)));
  }
  if (clustered_skips == 0) {
    std::printf("ERROR: clustered-ACL sweep skipped no pages — the "
                "page-skip path did not fire\n");
  }

  std::printf("\n(paper: secure evaluation costs <= ~2%% extra in the worst "
              "case, independent of accessibility ratio)\n");
  std::printf("extra access I/O across all secure runs: %llu (paper claim: "
              "0)\n", static_cast<unsigned long long>(extra_access_io));

  bench::WriteBenchJson(
      "fig7_secure_nok",
      bench::Json()
          .Set("bench", "fig7_secure_nok")
          .Set("nodes", nodes)
          .Set("repetitions", kReps)
          .Set("acl_draws", kAclDraws)
          .Set("extra_access_io", extra_access_io)
          .Set("sweep", points)
          .Set("low_accessibility", low_points)
          .Set("clustered_acl", clustered_points)
          .Set("clustered_pages_skipped", clustered_skips));
  return extra_access_io == 0 && clustered_skips > 0 ? 0 : 1;
}

}  // namespace
}  // namespace secxml

int main(int argc, char** argv) { return secxml::Run(argc, argv); }
