// Page-skip accounting and soundness for the per-subject ε-NoK path:
//
//  * over randomized (subject, query) batches on 8 seeds, across all three
//    access semantics and ordered/unordered matching, each query's
//    ExecStats::pages_skipped equals the store's IoStats::pages_skipped
//    delta, access_only_fetches stays 0 (the paper's zero-extra-I/O
//    property), and turning the page skip off changes no answer;
//  * the exact-count regression: a query over a store with a known
//    dead-page layout counts each distinct avoided page exactly once, no
//    matter how many candidates or siblings fall into it (the old
//    accounting incremented once per candidate).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/codebook.h"
#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "query/evaluator.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/xml_parser.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr size_t kNumSubjects = 4;

struct Fixture {
  Document doc;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

void BuildFixture(uint64_t seed, Fixture* f) {
  XMarkOptions xopts;
  xopts.seed = seed + 500;
  xopts.target_nodes = 2500;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  SyntheticAclOptions aopts;
  aopts.seed = seed + 900;
  aopts.accessibility_ratio = 0.5;
  IntervalAccessMap map = GenerateSyntheticAclMap(f->doc, kNumSubjects, aopts);
  DolLabeling labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;
  ASSERT_TRUE(
      SecureStore::Build(f->doc, labeling, &f->file, sopts, &f->store).ok());
}

class SkipAccountingTest : public ::testing::TestWithParam<int> {};

TEST_P(SkipAccountingTest, PagesSkippedMatchIoStatsPerQuery) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Fixture f;
  BuildFixture(seed, &f);
  QueryEvaluator eval(f.store.get());

  const AccessSemantics semantics[] = {
      AccessSemantics::kNone, AccessSemantics::kBinding,
      AccessSemantics::kView};
  uint64_t total_skipped = 0;
  for (AccessSemantics sem : semantics) {
    for (bool ordered : {false, true}) {
      for (int qi = 0; qi < 30; ++qi) {
        QueryGenOptions qopts;
        qopts.seed = seed * 5000 + static_cast<uint64_t>(qi);
        qopts.max_nodes = 2 + qi % 5;
        PatternTree pattern = GenerateTwigQuery(f.doc, qopts);

        EvalOptions opts;
        opts.semantics = sem;
        opts.subject = static_cast<SubjectId>(qi % kNumSubjects);
        opts.ordered_siblings = ordered;

        auto run = [&](bool page_skip, uint64_t* skipped) {
          // Cold caches + fresh counters so the IoStats delta is exactly
          // this evaluation's; the hidden-interval cache is dropped too so
          // kView re-runs its sweep.
          f.store->DropVisibilityCaches();
          EXPECT_TRUE(f.store->nok()->buffer_pool()->EvictAll().ok());
          f.store->nok()->buffer_pool()->mutable_stats()->Reset();
          opts.page_skip = page_skip;
          auto r = eval.Evaluate(pattern, opts);
          *skipped = f.store->io_stats().pages_skipped;
          return r;
        };

        uint64_t skipped_on = 0, skipped_off = 0;
        auto with_skip = run(true, &skipped_on);
        auto without_skip = run(false, &skipped_off);
        ASSERT_TRUE(with_skip.ok()) << with_skip.status();
        ASSERT_TRUE(without_skip.ok()) << without_skip.status();
        // The page skip avoids loads; it never changes what matches.
        EXPECT_EQ(with_skip->answers, without_skip->answers)
            << "seed " << seed << " query " << qi << " semantics "
            << static_cast<int>(sem) << " ordered " << ordered << ": "
            << pattern.ToString();
        EXPECT_EQ(with_skip->fragment_matches, without_skip->fragment_matches)
            << pattern.ToString();
        // The per-query ExecStats rollup and the store's IoStats must agree
        // on pages skipped (the sweep operators contribute none; only the
        // scan cursor counts, into both).
        EXPECT_EQ(with_skip->exec.pages_skipped, skipped_on)
            << pattern.ToString();
        EXPECT_EQ(skipped_off, 0u) << pattern.ToString();
        EXPECT_EQ(without_skip->exec.pages_skipped, 0u);
        // The zero-extra-I/O property, per query.
        EXPECT_EQ(with_skip->exec.access_only_fetches, 0u);
        EXPECT_EQ(without_skip->exec.access_only_fetches, 0u);
        // No cursor elides checks; non-secure scans check nothing.
        EXPECT_EQ(with_skip->exec.checks_elided, 0u);
        if (sem == AccessSemantics::kNone) {
          EXPECT_EQ(with_skip->exec.codes_checked, 0u);
          EXPECT_EQ(skipped_on, 0u);
        }
        total_skipped += skipped_on;
      }
    }
  }
  // 50% accessibility over 32-record pages: some query must skip, or the
  // equalities above held vacuously.
  EXPECT_GT(total_skipped, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipAccountingTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Exact-count pages_skipped regression --------------------------------

struct FlatFixture {
  Document doc;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

/// 200 <x/> children under one root, 32 records/page, subject 0 denied the
/// page-aligned node range [32, 128) — pages 1-3 wholly dead, everything
/// else accessible.
void BuildFlatFixture(FlatFixture* f) {
  std::string xml = "<doc>";
  for (int i = 0; i < 200; ++i) xml += "<x/>";
  xml += "</doc>";
  ASSERT_TRUE(ParseXml(xml, &f->doc).ok());
  ASSERT_EQ(f->doc.NumNodes(), 201u);

  DenseAccessMap map(f->doc.NumNodes(), /*num_subjects=*/1,
                     /*default_access=*/true);
  for (NodeId n = 32; n < 128; ++n) map.Set(0, n, false);
  DolLabeling labeling = DolLabeling::Build(map);
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;
  ASSERT_TRUE(
      SecureStore::Build(f->doc, labeling, &f->file, sopts, &f->store).ok());
}

uint64_t RunAndCountSkips(FlatFixture* f, const std::string& xpath) {
  QueryEvaluator eval(f->store.get());
  EvalOptions opts;
  opts.semantics = AccessSemantics::kBinding;
  opts.subject = 0;
  EXPECT_TRUE(f->store->nok()->buffer_pool()->EvictAll().ok());
  f->store->nok()->buffer_pool()->mutable_stats()->Reset();
  auto r = eval.EvaluateXPath(xpath, opts);
  EXPECT_TRUE(r.ok()) << r.status();
  // Every accessible x is an answer: 200 children minus the 96 denied.
  if (r.ok()) EXPECT_EQ(r->answers.size(), 104u);
  // The query's ExecStats rollup counts the same skips as the store.
  if (r.ok()) {
    EXPECT_EQ(r->exec.pages_skipped, f->store->io_stats().pages_skipped);
    EXPECT_EQ(r->exec.access_only_fetches, 0u);
  }
  return f->store->io_stats().pages_skipped;
}

TEST(PagesSkippedExactCountTest, OneIncrementPerDistinctDeadPage) {
  FlatFixture f;
  BuildFlatFixture(&f);

  // Expected: the number of distinct wholly-dead pages holding at least
  // one <x> posting, computed from the store itself.
  uint64_t expected = 0;
  for (size_t p = 0; p < f.store->nok()->num_pages(); ++p) {
    if (f.store->PageWhollyInaccessible(p, 0)) ++expected;
  }
  // The denied range [32, 128) is page-aligned at 32 records/page: three
  // uniform pages, each full of x postings.
  ASSERT_EQ(expected, 3u);

  // Unanchored single-node query: only the candidate filter skips. The
  // dead pages hold 96 candidate postings; each page must count once, not
  // once per candidate.
  EXPECT_EQ(RunAndCountSkips(&f, "//x"), expected);
  // Anchored child query: the sibling walk skips — the inline verdict check
  // plus NextSiblingSkippingDead must also count each page exactly once
  // between them.
  EXPECT_EQ(RunAndCountSkips(&f, "/doc/x"), expected);
}

}  // namespace
}  // namespace secxml
