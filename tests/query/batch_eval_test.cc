// Batch differential tests for the word-parallel multi-subject pipeline:
// EvaluateForSubjects must produce, for every subject, answers
// byte-identical to the reference evaluator (reference_eval.h, which shares
// no code with the engine) and to N independent QueryEvaluator::Evaluate
// calls, each a one-class run of the same pipeline — across seeds,
// semantics (binding and view), ordered and unordered sibling matching,
// page-skip on and off, widths past one mask word, and batches wider than
// kMaxBatchClasses, which chunk. The batch result's class structure
// (same-column subjects share one result) and the ExecStats rollup
// identity are pinned here too.

#include "query/batch_evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/codebook.h"
#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "exec/multi_cursor.h"
#include "query/evaluator.h"
#include "query/query_driver.h"
#include "reference_eval.h"
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

/// Ground truth for `subject` from the reference evaluator: under binding
/// semantics a node is usable iff accessible, under view semantics iff it
/// and every ancestor are. Unordered sibling matching only.
class Oracle {
 public:
  Oracle(const Fixture& f, SubjectId subject) : doc_(&f.doc) {
    const NodeId n = static_cast<NodeId>(f.doc.NumNodes());
    accessible_.resize(n);
    visible_.resize(n);
    for (NodeId x = 0; x < n; ++x) {
      accessible_[x] = *f.store->Accessible(subject, x);
      const NodeId p = f.doc.Parent(x);
      visible_[x] = accessible_[x] && (p == kInvalidNode || visible_[p]);
    }
  }

  std::vector<NodeId> Answers(const PatternTree& q,
                              AccessSemantics sem) const {
    const std::vector<char>& usable =
        sem == AccessSemantics::kView ? visible_ : accessible_;
    return ReferenceEvaluate(*doc_, q,
                             [&](NodeId x) { return usable[x] != 0; });
  }

 private:
  const Document* doc_;
  std::vector<char> accessible_;
  std::vector<char> visible_;
};

/// Structural scans a batch ran: each chunk carries one "batch" operator.
size_t ChunksOf(const SubjectBatchResult& b) {
  size_t chunks = 0;
  for (const ClassEvalResult& cls : b.classes) {
    for (const OperatorStats& op : cls.result.operators) {
      chunks += std::string_view(op.op) == "batch";
    }
  }
  return chunks;
}

/// The batch evaluated as consecutive sub-batches of at most `span`
/// subjects — the layout of a narrower mask, reached without any option.
std::vector<std::vector<NodeId>> EvaluateInSpans(
    BatchEvaluator* eval, const PatternTree& q,
    const std::vector<SubjectId>& subjects, const EvalOptions& opts,
    size_t span) {
  std::vector<std::vector<NodeId>> answers;
  for (size_t begin = 0; begin < subjects.size(); begin += span) {
    const size_t end = std::min(subjects.size(), begin + span);
    auto r = eval->Evaluate(
        q, std::span<const SubjectId>(subjects.data() + begin, end - begin),
        opts);
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok()) return {};
    for (size_t i = 0; i < end - begin; ++i) {
      answers.push_back(r->ResultFor(i).answers);
    }
  }
  return answers;
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

  std::vector<Oracle> oracles;
  for (SubjectId s : subjects) oracles.emplace_back(f, s);

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
          if (!ordered) {
            EXPECT_EQ(got.answers, oracles[i].Answers(q, sem))
                << "reference, seed " << seed << " subject " << subjects[i]
                << " semantics " << static_cast<int>(sem) << ": "
                << q.ToString();
          }
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
  // 70 subjects with (almost surely) distinct columns spill past one mask
  // word; the two-word mask runs them as one scan. Answers must match the
  // reference evaluator, the one-class path, and the same subjects run as
  // sub-batches of at most 64 (the one-word layout).
  Fixture f;
  BuildFixture(/*seed=*/7, /*num_subjects=*/70, /*num_profiles=*/70, &f);
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < 70; ++s) subjects.push_back(s);
  const size_t classes =
      GroupSubjectsByColumn(f.store->codebook(), subjects).size();
  ASSERT_GT(classes, 64u);  // wider than one mask word
  ASSERT_LE(classes, kMaxBatchClasses);
  std::vector<PatternTree> queries = MakeQueries(f.doc, 77, 2);
  std::vector<Oracle> oracles;
  for (SubjectId s : subjects) oracles.emplace_back(f, s);

  BatchEvaluator batch_eval(f.store.get());
  QueryEvaluator eval(f.store.get());
  for (const PatternTree& q : queries) {
    EvalOptions wide;
    wide.semantics = AccessSemantics::kBinding;
    auto br = batch_eval.Evaluate(q, subjects, wide);
    ASSERT_TRUE(br.ok()) << br.status();
    EXPECT_EQ(br->exec.subjects_batched, 70u);
    EXPECT_EQ(ChunksOf(*br), 1u);

    std::vector<std::vector<NodeId>> narrow =
        EvaluateInSpans(&batch_eval, q, subjects, wide, 64);
    ASSERT_EQ(narrow.size(), subjects.size());

    for (size_t i = 0; i < subjects.size(); ++i) {
      EvalOptions opts = wide;
      opts.subject = subjects[i];
      auto r = eval.Evaluate(q, opts);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(br->ResultFor(i).answers, r->answers)
          << "subject " << subjects[i] << ": " << q.ToString();
      EXPECT_EQ(br->ResultFor(i).answers,
                oracles[i].Answers(q, AccessSemantics::kBinding))
          << "reference, subject " << subjects[i] << ": " << q.ToString();
      EXPECT_EQ(narrow[i], r->answers)
          << "64-subject spans, subject " << subjects[i] << ": "
          << q.ToString();
    }
  }
}

// Width sweep across the word boundaries the two-word mask has to get
// right: just past one word (65, and 72 with one distinct column per
// subject — a mid-word width) in one scan, and 130 classes, which chunk
// into two scans. Wide batch == 64-subject spans == per-subject Evaluate
// == the reference evaluator, across binding/view and ordered/unordered.
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
  const size_t chunks =
      (classes + kMaxBatchClasses - 1) / kMaxBatchClasses;
  std::vector<Oracle> oracles;
  for (SubjectId s : subjects) oracles.emplace_back(f, s);

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
        EXPECT_EQ(ChunksOf(*br), chunks);

        // The one-word layout: sub-batches of at most 64 subjects.
        std::vector<std::vector<NodeId>> narrow =
            EvaluateInSpans(&batch_eval, q, subjects, wide, 64);
        ASSERT_EQ(narrow.size(), subjects.size());

        for (size_t i = 0; i < subjects.size(); ++i) {
          EvalOptions opts = wide;
          opts.subject = subjects[i];
          auto r = eval.Evaluate(q, opts);
          ASSERT_TRUE(r.ok());
          EXPECT_EQ(br->ResultFor(i).answers, r->answers)
              << "width " << width << " subject " << subjects[i]
              << " semantics " << static_cast<int>(sem) << " ordered "
              << ordered << ": " << q.ToString();
          EXPECT_EQ(narrow[i], br->ResultFor(i).answers)
              << "64-subject spans diverged, width " << width << " subject "
              << subjects[i] << ": " << q.ToString();
          if (!ordered) {
            EXPECT_EQ(br->ResultFor(i).answers, oracles[i].Answers(q, sem))
                << "reference, width " << width << " subject "
                << subjects[i] << ": " << q.ToString();
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WideBatchWidthTest,
                         ::testing::Values(65, 72, 130));

TEST(BatchEvalTest, FullWidthBatchRunsAsOneScan) {
  // kMaxBatchClasses subjects exercise both words of the mask in one scan;
  // 512 subjects chunk into several. The doc is kept small to bound
  // runtime; semantics coverage lives in WideBatchWidthTest.
  constexpr size_t kSubjects = 512;
  Fixture f;
  BuildFixture(/*seed=*/41, kSubjects, kSubjects, &f);
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < kSubjects; ++s) subjects.push_back(s);
  const std::vector<SubjectId> full(subjects.begin(),
                                    subjects.begin() + kMaxBatchClasses);
  const size_t classes = GroupSubjectsByColumn(f.store->codebook(), full).size();
  ASSERT_GT(classes, kMaxBatchClasses / 2);
  ASSERT_LE(classes, kMaxBatchClasses);
  const size_t all_classes =
      GroupSubjectsByColumn(f.store->codebook(), subjects).size();
  ASSERT_GT(all_classes, kMaxBatchClasses);

  PatternTree q = MakeQueries(f.doc, 123, 1)[0];
  BatchEvaluator batch_eval(f.store.get());
  QueryEvaluator eval(f.store.get());
  EvalOptions opts;
  opts.semantics = AccessSemantics::kBinding;
  auto br = batch_eval.Evaluate(q, full, opts);
  ASSERT_TRUE(br.ok()) << br.status();
  EXPECT_EQ(br->exec.classes_evaluated, classes);
  EXPECT_EQ(ChunksOf(*br), 1u);
  auto bc = batch_eval.Evaluate(q, subjects, opts);
  ASSERT_TRUE(bc.ok()) << bc.status();
  EXPECT_EQ(bc->exec.classes_evaluated, all_classes);
  EXPECT_EQ(ChunksOf(*bc),
            (all_classes + kMaxBatchClasses - 1) / kMaxBatchClasses);
  // Full parity between the one-scan and the chunked batch on their shared
  // subjects; spot checks against the one-class path and the reference
  // evaluator on both sides of every word and chunk boundary.
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(bc->ResultFor(i).answers, br->ResultFor(i).answers)
        << "subject " << i;
  }
  for (SubjectId s : {SubjectId{0}, SubjectId{63}, SubjectId{64},
                      SubjectId{127}, SubjectId{128}, SubjectId{255},
                      SubjectId{256}, SubjectId{kSubjects - 1}}) {
    opts.subject = s;
    auto r = eval.Evaluate(q, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(bc->ResultFor(s).answers, r->answers) << "subject " << s;
    EXPECT_EQ(bc->ResultFor(s).answers,
              Oracle(f, s).Answers(q, AccessSemantics::kBinding))
        << "reference, subject " << s;
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
