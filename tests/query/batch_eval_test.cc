// Batch-vs-serial differential tests for the word-parallel multi-subject
// pipeline: EvaluateForSubjects must produce, for every subject, answers
// byte-identical to N independent QueryEvaluator::Evaluate calls — across
// seeds, semantics (binding and view), ordered and unordered sibling
// matching, page-skip on and off, and >64-class chunking. The batch result's
// class structure (same-column subjects share one result) and the ExecStats
// rollup identity are pinned here too.

#include "query/batch_evaluator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/codebook.h"
#include "core/dol_labeling.h"
#include "exec/multi_cursor.h"
#include "core/secure_store.h"
#include "query/evaluator.h"
#include "query/query_driver.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

struct Fixture {
  Document doc;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

// `num_profiles` < `num_subjects` makes column-equal subjects: subject s
// draws the profile (s % num_profiles) ACL stream, so subjects sharing a
// profile have identical codebook columns — the dedup case the batch
// evaluator collapses.
void BuildFixture(uint64_t seed, size_t num_subjects, size_t num_profiles,
                  Fixture* f) {
  XMarkOptions xopts;
  xopts.seed = seed + 300;
  xopts.target_nodes = 2000;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  IntervalAccessMap map(static_cast<NodeId>(f->doc.NumNodes()),
                        num_subjects);
  for (SubjectId s = 0; s < num_subjects; ++s) {
    SyntheticAclOptions aopts;
    aopts.seed = seed * 100 + s % num_profiles;
    aopts.accessibility_ratio = 0.6;
    map.SetSubjectIntervals(s, GenerateSyntheticAcl(f->doc, aopts));
  }
  ASSERT_TRUE(map.Validate().ok());
  DolLabeling labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;
  ASSERT_TRUE(
      SecureStore::Build(f->doc, labeling, &f->file, sopts, &f->store).ok());
}

std::vector<PatternTree> MakeQueries(const Document& doc, uint64_t seed,
                                     int count) {
  std::vector<PatternTree> queries;
  for (int i = 0; i < count; ++i) {
    QueryGenOptions qopts;
    qopts.seed = seed * 5000 + static_cast<uint64_t>(i);
    qopts.max_nodes = 2 + i % 5;
    queries.push_back(GenerateTwigQuery(doc, qopts));
  }
  return queries;
}

void ExpectStatsEqual(const ExecStats& a, const ExecStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.nodes_scanned, b.nodes_scanned) << what;
  EXPECT_EQ(a.codes_checked, b.codes_checked) << what;
  EXPECT_EQ(a.checks_elided, b.checks_elided) << what;
  EXPECT_EQ(a.pages_skipped, b.pages_skipped) << what;
  EXPECT_EQ(a.fetch_waits, b.fetch_waits) << what;
  EXPECT_EQ(a.access_only_fetches, b.access_only_fetches) << what;
  EXPECT_EQ(a.subjects_batched, b.subjects_batched) << what;
  EXPECT_EQ(a.classes_evaluated, b.classes_evaluated) << what;
  EXPECT_EQ(a.class_dedup_hits, b.class_dedup_hits) << what;
}

class BatchEvalTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchEvalTest, BatchEqualsIndependentEvaluations) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  constexpr size_t kSubjects = 12, kProfiles = 5;
  Fixture f;
  BuildFixture(seed, kSubjects, kProfiles, &f);
  std::vector<PatternTree> queries = MakeQueries(f.doc, seed, 6);
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < kSubjects; ++s) subjects.push_back(s);

  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    for (bool ordered : {false, true}) {
      BatchEvaluator batch_eval(f.store.get());
      QueryEvaluator eval(f.store.get());
      for (const PatternTree& q : queries) {
        EvalOptions opts;
        opts.semantics = sem;
        opts.ordered_siblings = ordered;

        auto br = batch_eval.Evaluate(q, subjects, opts);
        ASSERT_TRUE(br.ok()) << br.status();

        for (size_t i = 0; i < subjects.size(); ++i) {
          opts.subject = subjects[i];
          auto r = eval.Evaluate(q, opts);
          ASSERT_TRUE(r.ok()) << r.status();
          const EvalResult& got = br->ResultFor(i);
          EXPECT_EQ(got.answers, r->answers)
              << "seed " << seed << " subject " << subjects[i]
              << " semantics " << static_cast<int>(sem) << " ordered "
              << ordered << ": " << q.ToString();
          EXPECT_EQ(got.fragment_matches, r->fragment_matches)
              << "seed " << seed << " subject " << subjects[i] << ": "
              << q.ToString();
        }
      }
    }
  }
}

TEST_P(BatchEvalTest, SameColumnSubjectsShareOneClass) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  constexpr size_t kSubjects = 12, kProfiles = 4;
  Fixture f;
  BuildFixture(seed, kSubjects, kProfiles, &f);
  std::vector<PatternTree> queries = MakeQueries(f.doc, seed + 1, 3);
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < kSubjects; ++s) subjects.push_back(s);

  // Ground truth: classes must be exactly the column partition.
  std::vector<SubjectClass> want_classes =
      GroupSubjectsByColumn(f.store->codebook(), subjects);
  ASSERT_LT(want_classes.size(), kSubjects);  // profiles actually collide

  BatchEvaluator batch_eval(f.store.get());
  for (const PatternTree& q : queries) {
    EvalOptions opts;
    opts.semantics = AccessSemantics::kBinding;
    auto br = batch_eval.Evaluate(q, subjects, opts);
    ASSERT_TRUE(br.ok()) << br.status();

    ASSERT_EQ(br->classes.size(), want_classes.size());
    for (size_t k = 0; k < want_classes.size(); ++k) {
      EXPECT_EQ(br->classes[k].subjects, want_classes[k].members);
    }
    // Subject-to-class mapping is consistent and members literally share
    // the one result object (compute once, fan out).
    for (size_t i = 0; i < subjects.size(); ++i) {
      const ClassEvalResult& cls = br->classes[br->class_of[i]];
      EXPECT_NE(std::find(cls.subjects.begin(), cls.subjects.end(),
                          subjects[i]),
                cls.subjects.end());
      EXPECT_EQ(&br->ResultFor(i), &cls.result);
    }
    EXPECT_EQ(br->exec.subjects_batched, kSubjects);
    EXPECT_EQ(br->exec.classes_evaluated, want_classes.size());
    EXPECT_EQ(br->exec.class_dedup_hits, kSubjects - want_classes.size());
  }
}

TEST_P(BatchEvalTest, ExecRollupIsSumOfClassStats) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Fixture f;
  BuildFixture(seed, /*num_subjects=*/10, /*num_profiles=*/4, &f);
  std::vector<PatternTree> queries = MakeQueries(f.doc, seed + 2, 4);
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < 10; ++s) subjects.push_back(s);

  BatchEvaluator batch_eval(f.store.get());
  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    for (const PatternTree& q : queries) {
      EvalOptions opts;
      opts.semantics = sem;
      auto br = batch_eval.Evaluate(q, subjects, opts);
      ASSERT_TRUE(br.ok()) << br.status();
      ExecStats summed;
      for (const ClassEvalResult& cls : br->classes) {
        summed += cls.result.exec;
        // Per-class exec is its own operator rollup.
        ExecStats ops = RollUp(cls.result.operators);
        ExpectStatsEqual(cls.result.exec, ops, "class rollup");
      }
      ExpectStatsEqual(br->exec, summed, "batch rollup");
      // The zero-extra-I/O property at batch granularity.
      EXPECT_EQ(br->exec.access_only_fetches, 0u);
    }
  }
}

TEST_P(BatchEvalTest, PageSkipOffMatchesOn) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Fixture f;
  BuildFixture(seed, /*num_subjects=*/8, /*num_profiles=*/3, &f);
  std::vector<PatternTree> queries = MakeQueries(f.doc, seed + 3, 4);
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < 8; ++s) subjects.push_back(s);

  BatchEvaluator batch_eval(f.store.get());
  for (const PatternTree& q : queries) {
    EvalOptions on, off;
    on.semantics = off.semantics = AccessSemantics::kBinding;
    on.page_skip = true;
    off.page_skip = false;
    auto ron = batch_eval.Evaluate(q, subjects, on);
    auto roff = batch_eval.Evaluate(q, subjects, off);
    ASSERT_TRUE(ron.ok() && roff.ok());
    for (size_t i = 0; i < subjects.size(); ++i) {
      EXPECT_EQ(ron->ResultFor(i).answers, roff->ResultFor(i).answers);
    }
    EXPECT_EQ(roff->exec.pages_skipped, 0u);
  }
}

TEST(BatchEvalTest, MoreThan64ClassesRunAsOneWideScan) {
  // 70 subjects with (almost surely) distinct columns used to spill past the
  // one-word mask and chunk into two scans; the wide mask runs them as one.
  // Answers must still match the per-subject path, and must also match a
  // forced-chunking run (the legacy layout, via batch_chunk_classes).
  Fixture f;
  BuildFixture(/*seed=*/7, /*num_subjects=*/70, /*num_profiles=*/70, &f);
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < 70; ++s) subjects.push_back(s);
  const size_t classes =
      GroupSubjectsByColumn(f.store->codebook(), subjects).size();
  ASSERT_GT(classes, 64u);  // wider than the PR 5 one-word cap
  ASSERT_LE(classes, kMaxBatchClasses);
  std::vector<PatternTree> queries = MakeQueries(f.doc, 77, 2);

  BatchEvaluator batch_eval(f.store.get());
  QueryEvaluator eval(f.store.get());
  for (const PatternTree& q : queries) {
    EvalOptions wide;
    wide.semantics = AccessSemantics::kBinding;
    auto br = batch_eval.Evaluate(q, subjects, wide);
    ASSERT_TRUE(br.ok()) << br.status();
    EXPECT_EQ(br->exec.subjects_batched, 70u);

    EvalOptions chunked = wide;
    chunked.batch_chunk_classes = 64;  // the old one-word layout
    auto bc = batch_eval.Evaluate(q, subjects, chunked);
    ASSERT_TRUE(bc.ok()) << bc.status();

    for (size_t i = 0; i < subjects.size(); ++i) {
      EvalOptions opts = wide;
      opts.subject = subjects[i];
      auto r = eval.Evaluate(q, opts);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(br->ResultFor(i).answers, r->answers)
          << "subject " << subjects[i] << ": " << q.ToString();
      EXPECT_EQ(bc->ResultFor(i).answers, r->answers)
          << "chunked, subject " << subjects[i] << ": " << q.ToString();
    }
  }
}

// Width sweep across the word boundaries the wide mask has to get right:
// just past one word (65 and 72 — the latter a mid-word width with one
// distinct column per subject), multi-word (130), and the full mask (512,
// via 512 subjects whose profiles collide down to ~hundreds of classes plus
// a distinct-column run at smaller width). Wide scan == chunked scan ==
// per-subject Evaluate, across binding/view and ordered/unordered.
class WideBatchWidthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WideBatchWidthTest, WideEqualsChunkedEqualsPerSubject) {
  const size_t width = GetParam();
  Fixture f;
  // Distinct profile per subject: classes == subjects (asserted below).
  BuildFixture(/*seed=*/31 + width, width, width, &f);
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < width; ++s) subjects.push_back(s);
  const size_t classes =
      GroupSubjectsByColumn(f.store->codebook(), subjects).size();
  ASSERT_GT(classes, 64u);
  ASSERT_LE(classes, kMaxBatchClasses);

  std::vector<PatternTree> queries = MakeQueries(f.doc, 91 + width, 2);
  BatchEvaluator batch_eval(f.store.get());
  QueryEvaluator eval(f.store.get());
  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    for (bool ordered : {false, true}) {
      for (const PatternTree& q : queries) {
        EvalOptions wide;
        wide.semantics = sem;
        wide.ordered_siblings = ordered;
        auto br = batch_eval.Evaluate(q, subjects, wide);
        ASSERT_TRUE(br.ok()) << br.status();
        EXPECT_EQ(br->exec.subjects_batched, width);
        EXPECT_EQ(br->exec.classes_evaluated, classes);
        EXPECT_EQ(br->exec.access_only_fetches, 0u);

        // The pre-wide-mask layout: chunks of at most 64 classes.
        EvalOptions chunked = wide;
        chunked.batch_chunk_classes = 64;
        auto bc = batch_eval.Evaluate(q, subjects, chunked);
        ASSERT_TRUE(bc.ok()) << bc.status();

        for (size_t i = 0; i < subjects.size(); ++i) {
          EvalOptions opts = wide;
          opts.subject = subjects[i];
          auto r = eval.Evaluate(q, opts);
          ASSERT_TRUE(r.ok());
          EXPECT_EQ(br->ResultFor(i).answers, r->answers)
              << "width " << width << " subject " << subjects[i]
              << " semantics " << static_cast<int>(sem) << " ordered "
              << ordered << ": " << q.ToString();
          EXPECT_EQ(bc->ResultFor(i).answers, br->ResultFor(i).answers)
              << "chunked diverged, width " << width << " subject "
              << subjects[i] << ": " << q.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WideBatchWidthTest,
                         ::testing::Values(65, 72, 130));

TEST(BatchEvalTest, FullWidthBatchRunsAsOneScan) {
  // kMaxBatchClasses subjects exercising every word of the mask. The doc is
  // kept small to bound runtime; semantics coverage lives in
  // WideBatchWidthTest.
  Fixture f;
  BuildFixture(/*seed=*/41, kMaxBatchClasses, kMaxBatchClasses, &f);
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < kMaxBatchClasses; ++s) subjects.push_back(s);
  const size_t classes =
      GroupSubjectsByColumn(f.store->codebook(), subjects).size();
  ASSERT_GT(classes, kMaxBatchClasses / 2);
  ASSERT_LE(classes, kMaxBatchClasses);

  PatternTree q = MakeQueries(f.doc, 123, 1)[0];
  BatchEvaluator batch_eval(f.store.get());
  QueryEvaluator eval(f.store.get());
  EvalOptions opts;
  opts.semantics = AccessSemantics::kBinding;
  auto br = batch_eval.Evaluate(q, subjects, opts);
  ASSERT_TRUE(br.ok()) << br.status();
  EXPECT_EQ(br->exec.classes_evaluated, classes);
  // Spot-check parity on a spread of subjects (full parity at this width is
  // covered by the chunked differential below).
  for (SubjectId s : {SubjectId{0}, SubjectId{64}, SubjectId{65},
                      SubjectId{255}, SubjectId{256},
                      static_cast<SubjectId>(kMaxBatchClasses - 1)}) {
    opts.subject = s;
    auto r = eval.Evaluate(q, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(br->ResultFor(s).answers, r->answers) << "subject " << s;
  }
  EvalOptions chunked = opts;
  chunked.batch_chunk_classes = 64;
  auto bc = batch_eval.Evaluate(q, subjects, chunked);
  ASSERT_TRUE(bc.ok()) << bc.status();
  for (size_t i = 0; i < subjects.size(); ++i) {
    EXPECT_EQ(bc->ResultFor(i).answers, br->ResultFor(i).answers)
        << "subject " << i;
  }
}

TEST(BatchEvalTest, DedupHitsMoveOnRepeatedProfileDraws) {
  // Randomized batch draws with repeated profiles — the bench-sweep shape
  // that used to report zero dedup hits. The counter must move whenever the
  // drawn subjects collapse onto fewer columns.
  Fixture f;
  BuildFixture(/*seed=*/19, /*num_subjects=*/24, /*num_profiles=*/6, &f);
  Rng rng(515);
  std::vector<SubjectId> subjects;
  for (int i = 0; i < 40; ++i) {
    subjects.push_back(static_cast<SubjectId>(rng.Uniform(24)));
  }
  const size_t classes =
      GroupSubjectsByColumn(f.store->codebook(), subjects).size();
  ASSERT_LT(classes, subjects.size());  // draws actually repeat profiles

  BatchEvaluator batch_eval(f.store.get());
  QueryEvaluator eval(f.store.get());
  PatternTree q = MakeQueries(f.doc, 19, 1)[0];
  EvalOptions opts;
  opts.semantics = AccessSemantics::kBinding;
  auto br = batch_eval.Evaluate(q, subjects, opts);
  ASSERT_TRUE(br.ok()) << br.status();
  EXPECT_EQ(br->exec.class_dedup_hits, subjects.size() - classes);
  EXPECT_GT(br->exec.class_dedup_hits, 0u);
  for (size_t i = 0; i < subjects.size(); ++i) {
    opts.subject = subjects[i];
    auto r = eval.Evaluate(q, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(br->ResultFor(i).answers, r->answers);
  }
}

TEST(BatchEvalTest, NoSemanticsCollapsesToOneClass) {
  Fixture f;
  BuildFixture(/*seed=*/11, /*num_subjects=*/6, /*num_profiles=*/6, &f);
  std::vector<SubjectId> subjects = {0, 1, 2, 3, 4, 5};
  std::vector<PatternTree> queries = MakeQueries(f.doc, 11, 2);

  BatchEvaluator batch_eval(f.store.get());
  QueryEvaluator eval(f.store.get());
  for (const PatternTree& q : queries) {
    EvalOptions opts;
    opts.semantics = AccessSemantics::kNone;
    auto br = batch_eval.Evaluate(q, subjects, opts);
    ASSERT_TRUE(br.ok()) << br.status();
    ASSERT_EQ(br->classes.size(), 1u);
    EXPECT_EQ(br->exec.classes_evaluated, 1u);
    EXPECT_EQ(br->exec.class_dedup_hits, 5u);
    auto r = eval.Evaluate(q, opts);
    ASSERT_TRUE(r.ok());
    for (size_t i = 0; i < subjects.size(); ++i) {
      EXPECT_EQ(br->ResultFor(i).answers, r->answers);
    }
  }
}

TEST(BatchEvalTest, EmptyBatchIsRejected) {
  Fixture f;
  BuildFixture(/*seed=*/13, /*num_subjects=*/2, /*num_profiles=*/2, &f);
  BatchEvaluator batch_eval(f.store.get());
  PatternTree q = MakeQueries(f.doc, 13, 1)[0];
  auto r = batch_eval.Evaluate(q, {}, EvalOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchEvalTest, DriverEntryPointMatchesEvaluator) {
  Fixture f;
  BuildFixture(/*seed=*/17, /*num_subjects=*/8, /*num_profiles=*/3, &f);
  std::vector<SubjectId> subjects = {0, 1, 2, 3, 4, 5, 6, 7};
  PatternTree q = MakeQueries(f.doc, 17, 1)[0];

  QueryDriverOptions dopts;
  dopts.semantics = AccessSemantics::kView;
  QueryDriver driver(f.store.get(), dopts);
  auto br = driver.EvaluateForSubjects(q, subjects);
  ASSERT_TRUE(br.ok()) << br.status();

  QueryEvaluator eval(f.store.get());
  for (size_t i = 0; i < subjects.size(); ++i) {
    EvalOptions opts;
    opts.semantics = AccessSemantics::kView;
    opts.subject = subjects[i];
    auto r = eval.Evaluate(q, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(br->ResultFor(i).answers, r->answers);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEvalTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace secxml
