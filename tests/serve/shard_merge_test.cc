// Scatter-gather differential tests (DESIGN.md §13): a ShardCoordinator over
// a ShardedStore cut into N candidate windows must produce, for every seed,
// semantics, and batch width, answers byte-identical to the single-store
// evaluators — with zero access-only I/O per window, a clean per-result
// rollup identity, and the document-order merge proved match by match.
// Cross-window edge cases (boundary-spanning matches, empty windows, windows
// that are entirely inaccessible) are pinned here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/codebook.h"
#include "query/batch_evaluator.h"
#include "query/query_cache.h"
#include "query/query_driver.h"
#include "query/xpath_parser.h"
#include "serve/shard_coordinator.h"
#include "shard_test_util.h"
#include "storage/shard_map.h"

namespace secxml {
namespace {

// Sum of the named operator's stats across a result (the scattered layout
// has one "scan" operator per window where the single-store layout has one
// total).
ExecStats SumOps(const EvalResult& r, const std::string& name) {
  ExecStats sum;
  for (const OperatorStats& op : r.operators) {
    if (name == op.op) sum += op.stats;
  }
  return sum;
}

void ExpectRollupIdentity(const EvalResult& r, const std::string& what) {
  ExecStats ops = RollUp(r.operators);
  EXPECT_EQ(r.exec.nodes_scanned, ops.nodes_scanned) << what;
  EXPECT_EQ(r.exec.codes_checked, ops.codes_checked) << what;
  EXPECT_EQ(r.exec.pages_skipped, ops.pages_skipped) << what;
  EXPECT_EQ(r.exec.access_only_fetches, ops.access_only_fetches) << what;
  EXPECT_EQ(r.exec.shards_scattered, ops.shards_scattered) << what;
  EXPECT_EQ(r.exec.merge_comparisons, ops.merge_comparisons) << what;
}

TEST(ShardMapTest, PartitionTilesTheNodeSpace) {
  // 10 pages, first-node boundaries ascending; every shard count must tile
  // [0, num_nodes) with contiguous, ascending ranges.
  std::vector<uint32_t> firsts = {0, 7, 19, 20, 33, 40, 58, 77, 90, 95};
  const uint32_t num_nodes = 101;
  for (size_t shards : {1u, 2u, 3u, 4u, 8u, 16u}) {
    ShardMap map = ShardMap::Partition(firsts, num_nodes, shards);
    ASSERT_EQ(map.num_shards(), shards);
    uint32_t expect_node = 0;
    size_t expect_page = 0;
    for (size_t s = 0; s < shards; ++s) {
      const ShardRange& r = map.range(s);
      EXPECT_EQ(r.first_node, expect_node) << "shard " << s;
      EXPECT_EQ(r.first_page, expect_page) << "shard " << s;
      EXPECT_GE(r.end_node, r.first_node);
      expect_node = r.end_node;
      expect_page = r.end_page;
    }
    EXPECT_EQ(expect_node, num_nodes);
    EXPECT_EQ(expect_page, firsts.size());
  }
}

class ShardDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardDifferentialTest, FourShardsMatchSingleStore) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ShardFixtureOptions o;
  o.seed = seed;
  ShardFixture f;
  BuildShardFixture(o, &f);
  std::vector<PatternTree> queries = MakeShardQueries(f.doc, seed, 6);

  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    ShardCoordinatorOptions copts;
    copts.semantics = sem;
    ShardCoordinator coord(f.sharded.get(), copts);
    QueryEvaluator eval(f.single.get());
    for (const PatternTree& q : queries) {
      for (SubjectId s = 0; s < o.num_subjects; ++s) {
        auto sr = coord.Evaluate(q, s);
        ASSERT_TRUE(sr.ok()) << sr.status();
        EvalOptions eopts;
        eopts.semantics = sem;
        eopts.subject = s;
        auto rr = eval.Evaluate(q, eopts);
        ASSERT_TRUE(rr.ok()) << rr.status();

        EXPECT_EQ(sr->answers, rr->answers)
            << "seed " << seed << " subject " << s << " semantics "
            << static_cast<int>(sem) << ": " << q.ToString();
        EXPECT_EQ(sr->fragment_matches, rr->fragment_matches);

        // Zero extra access I/O on every window, and the merge actually ran.
        EXPECT_EQ(sr->exec.access_only_fetches, 0u);
        EXPECT_EQ(sr->exec.shards_scattered, 4u);
        ExpectRollupIdentity(*sr, "sharded result");

        // Candidate windows tile the node space, so the per-window scans
        // sum to exactly the single store's scan work.
        ExecStats scan_sum = SumOps(*sr, "scan");
        ExecStats single_scan = SumOps(*rr, "scan");
        EXPECT_EQ(scan_sum.nodes_scanned, single_scan.nodes_scanned)
            << "seed " << seed << " subject " << s << ": " << q.ToString();
        EXPECT_EQ(scan_sum.codes_checked, single_scan.codes_checked);
        // Every merged match was order-verified.
        EXPECT_EQ(sr->exec.merge_comparisons, sr->fragment_matches);
      }
    }
  }
}

TEST_P(ShardDifferentialTest, DriverBatchMatchesSingleStoreDriver) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ShardFixtureOptions o;
  o.seed = seed;
  ShardFixture f;
  BuildShardFixture(o, &f);
  std::vector<PatternTree> queries = MakeShardQueries(f.doc, seed + 40, 5);

  std::vector<QueryJob> jobs;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (SubjectId s = 0; s < 4; ++s) {
      jobs.push_back({s, queries[i]});
    }
  }

  ShardCoordinatorOptions copts;
  copts.semantics = AccessSemantics::kView;
  ShardCoordinator coord(f.sharded.get(), copts);
  BatchResult got = coord.Run(jobs);

  QueryDriverOptions dopts;
  dopts.semantics = AccessSemantics::kView;
  QueryDriver driver(f.single.get(), dopts);
  BatchResult want = driver.Run(jobs);

  ASSERT_EQ(got.outcomes.size(), want.outcomes.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(got.outcomes[i].status.ok()) << got.outcomes[i].status;
    ASSERT_TRUE(want.outcomes[i].status.ok());
    EXPECT_EQ(got.outcomes[i].result.answers, want.outcomes[i].result.answers)
        << "job " << i;
  }
  EXPECT_EQ(got.stats.failed, 0u);
  EXPECT_EQ(got.stats.exec.access_only_fetches, 0u);
  EXPECT_EQ(got.stats.exec.shards_scattered, 4u * jobs.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Batch widths across the mask-word boundaries: 1 (degenerate), 64 (one
// word), 512 (about 256 classes: several chunks of the two-word mask).
// Per-subject answers from the scattered batch pipeline must equal
// BatchEvaluator's (itself pinned to the reference evaluator), across
// eight seeds and both secure semantics.
class ShardBatchWidthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardBatchWidthTest, ScatteredBatchMatchesSingleStoreBatch) {
  const size_t width = GetParam();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ShardFixtureOptions o;
    o.seed = seed * 13 + width;
    o.num_subjects = width;
    o.num_profiles = std::max<size_t>(1, width / 2);
    o.target_nodes = width >= 512 ? 900 : 2000;
    ShardFixture f;
    BuildShardFixture(o, &f);
    std::vector<SubjectId> subjects;
    for (SubjectId s = 0; s < width; ++s) subjects.push_back(s);
    std::vector<PatternTree> queries =
        MakeShardQueries(f.doc, o.seed, width >= 512 ? 1 : 3);

    for (AccessSemantics sem :
         {AccessSemantics::kBinding, AccessSemantics::kView}) {
      ShardCoordinatorOptions copts;
      copts.semantics = sem;
      ShardCoordinator coord(f.sharded.get(), copts);
      BatchEvaluator batch_eval(f.single.get());
      for (const PatternTree& q : queries) {
        auto sb = coord.EvaluateForSubjects(q, subjects);
        ASSERT_TRUE(sb.ok()) << sb.status();
        EvalOptions eopts;
        eopts.semantics = sem;
        auto wb = batch_eval.Evaluate(q, subjects, eopts);
        ASSERT_TRUE(wb.ok()) << wb.status();

        ASSERT_EQ(sb->classes.size(), wb->classes.size());
        for (size_t i = 0; i < subjects.size(); ++i) {
          EXPECT_EQ(sb->class_of[i], wb->class_of[i]);
          EXPECT_EQ(sb->ResultFor(i).answers, wb->ResultFor(i).answers)
              << "seed " << seed << " width " << width << " subject " << i
              << " semantics " << static_cast<int>(sem) << ": "
              << q.ToString();
        }
        // Batch-level accounting: zero extra I/O, the rollup-sum identity,
        // and the batch counters agreeing with the reference pipeline.
        EXPECT_EQ(sb->exec.access_only_fetches, 0u);
        EXPECT_EQ(sb->exec.subjects_batched, wb->exec.subjects_batched);
        EXPECT_EQ(sb->exec.classes_evaluated, wb->exec.classes_evaluated);
        EXPECT_EQ(sb->exec.class_dedup_hits, wb->exec.class_dedup_hits);
        ExecStats summed;
        for (const ClassEvalResult& cls : sb->classes) {
          summed += cls.result.exec;
        }
        EXPECT_EQ(sb->exec.nodes_scanned, summed.nodes_scanned);
        EXPECT_EQ(sb->exec.merge_comparisons, summed.merge_comparisons);
        EXPECT_GT(sb->exec.shards_scattered, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ShardBatchWidthTest,
                         ::testing::Values(1, 64, 512));

TEST(ShardMergeTest, OneVsManyShardsIdentical) {
  // The 1-window coordinator is the unscattered evaluator; every wider
  // window count must reproduce it exactly.
  ShardFixtureOptions base;
  base.seed = 21;
  base.num_shards = 1;
  ShardFixture one;
  BuildShardFixture(base, &one);
  std::vector<PatternTree> queries = MakeShardQueries(one.doc, 21, 5);

  ShardCoordinatorOptions copts;
  copts.semantics = AccessSemantics::kBinding;
  ShardCoordinator ref(one.sharded.get(), copts);
  for (size_t shards : {2u, 3u, 4u, 8u}) {
    ShardFixtureOptions o = base;
    o.num_shards = shards;
    ShardFixture f;
    BuildShardFixture(o, &f);
    ShardCoordinator coord(f.sharded.get(), copts);
    for (const PatternTree& q : queries) {
      for (SubjectId s = 0; s < base.num_subjects; ++s) {
        auto a = ref.Evaluate(q, s);
        auto b = coord.Evaluate(q, s);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(a->answers, b->answers)
            << shards << " shards, subject " << s << ": " << q.ToString();
        EXPECT_EQ(a->fragment_matches, b->fragment_matches);
      }
    }
  }
}

TEST(ShardMergeTest, EmptyShardsWithMoreShardsThanPages) {
  // A tiny document at physical page capacity packs into fewer pages than
  // windows; the trailing windows are empty and must contribute nothing
  // (and break nothing).
  ShardFixtureOptions o;
  o.seed = 33;
  o.num_shards = 8;
  o.target_nodes = 150;
  o.max_records_per_page = 0;  // physical maximum: very few pages
  ShardFixture f;
  BuildShardFixture(o, &f);

  size_t empties = 0;
  const ShardMap windows = f.sharded->Windows();
  for (size_t w = 0; w < 8; ++w) {
    if (windows.range(w).empty()) ++empties;
  }
  ASSERT_GT(empties, 0u) << "fixture did not produce empty windows";

  ShardCoordinatorOptions copts;
  copts.semantics = AccessSemantics::kView;
  ShardCoordinator coord(f.sharded.get(), copts);
  QueryEvaluator eval(f.single.get());
  for (const PatternTree& q : MakeShardQueries(f.doc, 33, 4)) {
    for (SubjectId s = 0; s < o.num_subjects; ++s) {
      auto sr = coord.Evaluate(q, s);
      ASSERT_TRUE(sr.ok()) << sr.status();
      EvalOptions eopts;
      eopts.semantics = AccessSemantics::kView;
      eopts.subject = s;
      auto rr = eval.Evaluate(q, eopts);
      ASSERT_TRUE(rr.ok());
      EXPECT_EQ(sr->answers, rr->answers) << q.ToString();
    }
  }
}

TEST(ShardMergeTest, BoundarySpanningMatchComesOutWhole) {
  // A root-anchored twig whose match root (node 0) lies in window 0 while
  // its bindings live arbitrarily deep in every other window: window 0's
  // scan of the full structure must produce the whole match, identical to
  // the single store.
  ShardFixtureOptions o;
  o.seed = 5;
  ShardFixture f;
  BuildShardFixture(o, &f);
  const NodeId window0_end = f.sharded->Windows().range(0).end_node;
  ASSERT_LT(window0_end, f.sharded->store()->num_nodes())
      << "need a real window boundary below the root's subtree end";

  PatternTree q;
  ASSERT_TRUE(ParseXPath("/site//item", &q).ok());
  ShardCoordinatorOptions copts;
  copts.semantics = AccessSemantics::kBinding;
  ShardCoordinator coord(f.sharded.get(), copts);
  QueryEvaluator eval(f.single.get());
  for (SubjectId s = 0; s < o.num_subjects; ++s) {
    auto sr = coord.Evaluate(q, s);
    ASSERT_TRUE(sr.ok()) << sr.status();
    EvalOptions eopts;
    eopts.semantics = AccessSemantics::kBinding;
    eopts.subject = s;
    auto rr = eval.Evaluate(q, eopts);
    ASSERT_TRUE(rr.ok());
    EXPECT_EQ(sr->answers, rr->answers) << "subject " << s;
    EXPECT_EQ(sr->fragment_matches, rr->fragment_matches);
  }
  // The root match itself exists for the all-access case and its answers
  // extend past window 0's boundary — the span the merge had to preserve.
  auto open = coord.Evaluate(q, 0);
  ASSERT_TRUE(open.ok());
  if (!open->answers.empty()) {
    EXPECT_GT(open->answers.back(), window0_end);
  }
}

TEST(ShardMergeTest, AllDeadShardIsSkippedConsistently) {
  // Subject 1 can access only the first ~eighth of the document, so the
  // trailing windows are wholly inaccessible: page skipping must kill them
  // without extra I/O, and answers must still match the single store (which
  // skips the same pages once).
  XMarkOptions xopts;
  xopts.seed = 77;
  xopts.target_nodes = 2000;
  Document doc;
  ASSERT_TRUE(GenerateXMark(xopts, &doc).ok());
  const NodeId n = static_cast<NodeId>(doc.NumNodes());
  IntervalAccessMap map(n, 2);
  map.SetSubjectIntervals(0, {{0, n}});      // subject 0: everything
  map.SetSubjectIntervals(1, {{0, n / 8}});  // subject 1: a head slice
  ASSERT_TRUE(map.Validate().ok());
  DolLabeling labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;

  MemPagedFile single_file;
  std::unique_ptr<SecureStore> single;
  ASSERT_TRUE(
      SecureStore::Build(doc, labeling, &single_file, sopts, &single).ok());
  ShardedStoreOptions shopts;
  shopts.num_shards = 4;
  shopts.nok = sopts;
  shopts.attach_wal = false;
  ShardFileSet files(4);
  std::unique_ptr<ShardedStore> sharded;
  ASSERT_TRUE(ShardedStore::Build(doc, labeling, shopts, files.provider(),
                                  &sharded)
                  .ok());

  ShardCoordinatorOptions copts;
  copts.semantics = AccessSemantics::kBinding;
  ShardCoordinator coord(sharded.get(), copts);
  QueryEvaluator eval(single.get());
  for (const PatternTree& q : MakeShardQueries(doc, 78, 4)) {
    for (SubjectId s : {SubjectId{0}, SubjectId{1}}) {
      auto sr = coord.Evaluate(q, s);
      ASSERT_TRUE(sr.ok()) << sr.status();
      EvalOptions eopts;
      eopts.semantics = AccessSemantics::kBinding;
      eopts.subject = s;
      auto rr = eval.Evaluate(q, eopts);
      ASSERT_TRUE(rr.ok());
      EXPECT_EQ(sr->answers, rr->answers)
          << "subject " << s << ": " << q.ToString();
      EXPECT_EQ(sr->exec.access_only_fetches, 0u);
      // A page on a window boundary can be counted skipped by both of its
      // neighbors, so the scattered count dominates the single store's.
      EXPECT_GE(sr->exec.pages_skipped, rr->exec.pages_skipped);
    }
  }
}

// The single-store contract for unknown subjects holds at every
// coordinator entry point: InvalidArgument under access-controlled
// semantics before any cache probe or scan, and in Run() only the affected
// job fails.
TEST(ShardMergeTest, UnknownSubjectIsInvalidArgument) {
  ShardFixtureOptions o;
  o.num_subjects = 3;
  o.num_profiles = 3;
  ShardFixture f;
  BuildShardFixture(o, &f);
  const SubjectId unknown = static_cast<SubjectId>(o.num_subjects);
  PatternTree q = MakeShardQueries(f.doc, 5, 1)[0];

  cache::ResultCache results;
  QueryPlanCache plans;
  AttachResultCacheInvalidation(f.sharded->store(), &results);
  QueryCaches cached;
  cached.results = &results;
  cached.plans = &plans;

  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    for (const QueryCaches& caches : {QueryCaches{}, cached}) {
      ShardCoordinatorOptions copts;
      copts.semantics = sem;
      copts.caches = caches;
      ShardCoordinator coord(f.sharded.get(), copts);
      auto r = coord.Evaluate(q, unknown);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      for (const std::vector<SubjectId>& subjects :
           {std::vector<SubjectId>{unknown}, std::vector<SubjectId>{0, unknown}}) {
        auto b = coord.EvaluateForSubjects(q, subjects);
        ASSERT_FALSE(b.ok());
        EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument);
      }
      BatchResult run = coord.Run({{0, q}, {unknown, q}, {1, q}});
      EXPECT_TRUE(run.outcomes[0].status.ok()) << run.outcomes[0].status;
      EXPECT_EQ(run.outcomes[1].status.code(), StatusCode::kInvalidArgument);
      EXPECT_TRUE(run.outcomes[2].status.ok()) << run.outcomes[2].status;
      EXPECT_EQ(run.stats.failed, 1u);
      EXPECT_EQ(run.stats.first_error.code(), StatusCode::kInvalidArgument);
      QueryEvaluator eval(f.single.get());
      EvalOptions eopts;
      eopts.semantics = sem;
      eopts.subject = 1;
      auto want = eval.Evaluate(q, eopts);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(run.outcomes[2].result.answers, want->answers);
    }
  }
}

}  // namespace
}  // namespace secxml
