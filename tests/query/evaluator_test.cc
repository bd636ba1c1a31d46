#include "query/evaluator.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/policy.h"
#include "query/xpath_parser.h"
#include "reference_eval.h"
#include "storage/paged_file.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr const char* kPaperQueries[] = {
    "/site/regions/africa/item[location][name][quantity]",       // Q1
    "/site/categories/category[name]/description/text/bold",     // Q2
    "/site/categories/category/name[description/text/bold]",     // Q3
    "//parlist//parlist",                                        // Q4
    "//listitem//keyword",                                       // Q5
    "//item//emph",                                              // Q6
};

constexpr const char* kExtraQueries[] = {
    "//item[location][quantity]/name",
    "/site//item//keyword",
    "//category/description//bold",
    "/site/*/africa/item",
    "//listitem[text]//bold",
    "//item[location='africa']/name",
    "//a_tag_that_does_not_exist",
    "//description/text[bold][keyword]",
};

struct SecureFixture {
  Document doc;
  DolLabeling labeling;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
  std::vector<bool> accessible;  // subject 0
  std::vector<bool> visible;     // subject 0, view semantics

  static std::unique_ptr<SecureFixture> Make(uint32_t nodes, uint64_t seed,
                                             double accessibility_ratio,
                                             uint32_t records_per_page = 64) {
    auto f = std::make_unique<SecureFixture>();
    XMarkOptions xopts;
    xopts.seed = seed;
    xopts.target_nodes = nodes;
    EXPECT_TRUE(GenerateXMark(xopts, &f->doc).ok());
    NodeId n = static_cast<NodeId>(f->doc.NumNodes());
    Rng rng(seed * 131 + 7);
    // Two subjects with MSO-propagated rights; subject 0 is the one under
    // test, subject 1 adds multi-subject codebook structure.
    IntervalAccessMap map(n, 2);
    for (SubjectId s = 0; s < 2; ++s) {
      std::vector<AclSeed> seeds = {{0, rng.Bernoulli(accessibility_ratio)}};
      for (int i = 0; i < 40; ++i) {
        seeds.push_back({static_cast<NodeId>(rng.Uniform(n)),
                         rng.Bernoulli(accessibility_ratio)});
      }
      map.SetSubjectIntervals(s, PropagateMostSpecificOverride(f->doc, seeds));
    }
    f->labeling =
        DolLabeling::BuildFromEvents(n, map.InitialAcl(), map.CollectEvents());
    NokStoreOptions options;
    options.max_records_per_page = records_per_page;
    Status st =
        SecureStore::Build(f->doc, f->labeling, &f->file, options, &f->store);
    EXPECT_TRUE(st.ok()) << st;
    f->accessible.resize(n);
    f->visible.resize(n);
    for (NodeId x = 0; x < n; ++x) {
      f->accessible[x] = f->labeling.Accessible(0, x);
      NodeId p = f->doc.Parent(x);
      f->visible[x] =
          f->accessible[x] && (p == kInvalidNode || f->visible[p]);
    }
    return f;
  }
};

class EvaluatorSemanticsTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(EvaluatorSemanticsTest, MatchesReferenceOnAllQueries) {
  auto [seed, ratio] = GetParam();
  auto f = SecureFixture::Make(6000, static_cast<uint64_t>(seed), ratio);
  QueryEvaluator eval(f->store.get());
  std::vector<std::string> queries(std::begin(kPaperQueries),
                                   std::end(kPaperQueries));
  queries.insert(queries.end(), std::begin(kExtraQueries),
                 std::end(kExtraQueries));
  for (const std::string& q : queries) {
    PatternTree pattern;
    ASSERT_TRUE(ParseXPath(q, &pattern).ok()) << q;

    // Non-secure.
    EvalOptions opts;
    opts.semantics = AccessSemantics::kNone;
    auto got = eval.Evaluate(pattern, opts);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status();
    auto want =
        ReferenceEvaluate(f->doc, pattern, [](NodeId) { return true; });
    ASSERT_EQ(got->answers, want) << "kNone " << q;

    // Binding semantics (Cho et al.) = ε-NoK.
    opts.semantics = AccessSemantics::kBinding;
    got = eval.Evaluate(pattern, opts);
    ASSERT_TRUE(got.ok()) << q;
    want = ReferenceEvaluate(f->doc, pattern,
                             [&f](NodeId x) { return f->accessible[x]; });
    ASSERT_EQ(got->answers, want) << "kBinding " << q;

    // View semantics (Gabillon-Bruno) = ε-NoK + ε-STD.
    opts.semantics = AccessSemantics::kView;
    got = eval.Evaluate(pattern, opts);
    ASSERT_TRUE(got.ok()) << q;
    want = ReferenceEvaluate(f->doc, pattern,
                             [&f](NodeId x) { return f->visible[x]; });
    ASSERT_EQ(got->answers, want) << "kView " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRatios, EvaluatorSemanticsTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.3, 0.7)));

TEST(EvaluatorTest, PageSkipToggleGivesSameAnswers) {
  auto f = SecureFixture::Make(8000, 77, 0.2);
  QueryEvaluator eval(f->store.get());
  for (const char* q : kPaperQueries) {
    EvalOptions with_skip;
    with_skip.semantics = AccessSemantics::kBinding;
    with_skip.page_skip = true;
    EvalOptions without_skip = with_skip;
    without_skip.page_skip = false;
    auto a = eval.EvaluateXPath(q, with_skip);
    auto b = eval.EvaluateXPath(q, without_skip);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    ASSERT_EQ(a->answers, b->answers) << q;
  }
}

TEST(EvaluatorTest, SecureEvaluationAddsNoPageReads) {
  // The paper's central claim (Sections 3.3, 5.2): ε-NoK accessibility
  // checks need no I/O beyond what NoK itself reads, because codes live in
  // the same pages as the structure.
  auto f = SecureFixture::Make(10000, 99, 0.7);
  QueryEvaluator eval(f->store.get());
  for (const char* q : kPaperQueries) {
    EvalOptions plain;
    plain.semantics = AccessSemantics::kNone;
    EvalOptions secure;
    secure.semantics = AccessSemantics::kBinding;

    ASSERT_TRUE(f->store->nok()->buffer_pool()->EvictAll().ok());
    f->store->nok()->buffer_pool()->mutable_stats()->Reset();
    ASSERT_TRUE(eval.EvaluateXPath(q, plain).ok());
    uint64_t plain_reads = f->store->io_stats().page_reads;

    ASSERT_TRUE(f->store->nok()->buffer_pool()->EvictAll().ok());
    f->store->nok()->buffer_pool()->mutable_stats()->Reset();
    ASSERT_TRUE(eval.EvaluateXPath(q, secure).ok());
    uint64_t secure_reads = f->store->io_stats().page_reads;

    EXPECT_LE(secure_reads, plain_reads) << q;
  }
}

// AccessSemantics::kNone runs the same cursor with access checks off: the
// paper's unchecked NoK scan decodes no DOL code and skips no page, and
// its answers are the reference evaluator's over the whole document.
TEST(EvaluatorTest, NoneSemanticsDecodesNoCode) {
  auto f = SecureFixture::Make(6000, 5, 0.3);
  QueryEvaluator eval(f->store.get());
  std::vector<std::string> queries(std::begin(kPaperQueries),
                                   std::end(kPaperQueries));
  queries.insert(queries.end(), std::begin(kExtraQueries),
                 std::end(kExtraQueries));
  uint64_t secure_codes = 0;
  for (const std::string& q : queries) {
    PatternTree pattern;
    ASSERT_TRUE(ParseXPath(q, &pattern).ok()) << q;
    EvalOptions none;
    none.semantics = AccessSemantics::kNone;
    auto got = eval.Evaluate(pattern, none);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status();
    EXPECT_EQ(got->answers,
              ReferenceEvaluate(f->doc, pattern, [](NodeId) { return true; }))
        << q;
    EXPECT_EQ(got->exec.codes_checked, 0u) << q;
    EXPECT_EQ(got->exec.pages_skipped, 0u) << q;
    EvalOptions binding;
    binding.semantics = AccessSemantics::kBinding;
    auto secure = eval.Evaluate(pattern, binding);
    ASSERT_TRUE(secure.ok()) << q;
    secure_codes += secure->exec.codes_checked;
  }
  // The same queries under binding semantics do decode codes.
  EXPECT_GT(secure_codes, 0u);
}

// A single subject runs as a one-class chunk of the batch pipeline, and its
// result keeps the single-subject shape: "scan", "visibility" (view only)
// and "join" operators, no batch counters, one epoch pin, exec as the sum
// of the operators, and no access-only fetch.
TEST(EvaluatorTest, SingleSubjectResultKeepsItsShape) {
  auto f = SecureFixture::Make(6000, 9, 0.5);
  QueryEvaluator eval(f->store.get());
  for (AccessSemantics sem : {AccessSemantics::kNone,
                              AccessSemantics::kBinding,
                              AccessSemantics::kView}) {
    for (const char* q : kPaperQueries) {
      EvalOptions opts;
      opts.semantics = sem;
      auto r = eval.EvaluateXPath(q, opts);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status();
      std::vector<std::string> ops;
      for (const OperatorStats& op : r->operators) ops.push_back(op.op);
      const std::vector<std::string> want =
          sem == AccessSemantics::kView
              ? std::vector<std::string>{"scan", "visibility", "join"}
              : std::vector<std::string>{"scan", "join"};
      EXPECT_EQ(ops, want) << q;
      const ExecStats sum = RollUp(r->operators);
      EXPECT_EQ(r->exec.nodes_scanned, sum.nodes_scanned) << q;
      EXPECT_EQ(r->exec.codes_checked, sum.codes_checked) << q;
      EXPECT_EQ(r->exec.pages_skipped, sum.pages_skipped) << q;
      EXPECT_EQ(r->exec.epoch_pins, 1u) << q;
      EXPECT_EQ(r->exec.subjects_batched, 0u) << q;
      EXPECT_EQ(r->exec.classes_evaluated, 0u) << q;
      EXPECT_EQ(r->exec.access_only_fetches, 0u) << q;
      EXPECT_GE(r->fragment_matches, r->answers.empty() ? 0u : 1u) << q;
    }
  }
}

TEST(EvaluatorTest, PageSkipAvoidsReadsAtLowAccessibility) {
  // When most of the document is inaccessible, the in-memory page headers
  // let ε-NoK skip whole pages (Section 3.3's optimization; the paper notes
  // the secure evaluator can then beat the non-secure one).
  auto f = SecureFixture::Make(20000, 123, 0.05, /*records_per_page=*/64);
  QueryEvaluator eval(f->store.get());
  EvalOptions secure;
  secure.semantics = AccessSemantics::kBinding;
  uint64_t total_skipped = 0;
  for (const char* q : kPaperQueries) {
    ASSERT_TRUE(f->store->nok()->buffer_pool()->EvictAll().ok());
    f->store->nok()->buffer_pool()->mutable_stats()->Reset();
    ASSERT_TRUE(eval.EvaluateXPath(q, secure).ok());
    total_skipped += f->store->io_stats().pages_skipped;
  }
  EXPECT_GT(total_skipped, 0u);
}

TEST(EvaluatorTest, FullyInaccessibleDocumentReturnsNothing) {
  Document doc;
  XMarkOptions xopts;
  xopts.target_nodes = 2000;
  ASSERT_TRUE(GenerateXMark(xopts, &doc).ok());
  DenseAccessMap map(static_cast<NodeId>(doc.NumNodes()), 1, false);
  DolLabeling labeling = DolLabeling::Build(map);
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
  ASSERT_TRUE(SecureStore::Build(doc, labeling, &file, {}, &store).ok());
  QueryEvaluator eval(store.get());
  EvalOptions secure;
  secure.semantics = AccessSemantics::kBinding;
  for (const char* q : kPaperQueries) {
    auto got = eval.EvaluateXPath(q, secure);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->answers.empty()) << q;
  }
}

TEST(EvaluatorTest, ViewSemanticsStricterThanBinding) {
  auto f = SecureFixture::Make(8000, 201, 0.5);
  QueryEvaluator eval(f->store.get());
  for (const char* q : kPaperQueries) {
    EvalOptions binding;
    binding.semantics = AccessSemantics::kBinding;
    EvalOptions view;
    view.semantics = AccessSemantics::kView;
    auto b = eval.EvaluateXPath(q, binding);
    auto v = eval.EvaluateXPath(q, view);
    ASSERT_TRUE(b.ok() && v.ok()) << q;
    // Every view answer is also a binding answer.
    ASSERT_TRUE(std::includes(b->answers.begin(), b->answers.end(),
                              v->answers.begin(), v->answers.end()))
        << q;
  }
}

TEST(EvaluatorTest, ValueConstraintsFilterAnswers) {
  auto f = SecureFixture::Make(5000, 301, 1.0);
  QueryEvaluator eval(f->store.get());
  EvalOptions opts;
  auto africa = eval.EvaluateXPath("//item[location='africa']", opts);
  auto all = eval.EvaluateXPath("//item[location]", opts);
  ASSERT_TRUE(africa.ok() && all.ok());
  EXPECT_GT(africa->answers.size(), 0u);
  EXPECT_LT(africa->answers.size(), all->answers.size());
  // Verify each answer really is an african item.
  for (NodeId item : africa->answers) {
    bool found = false;
    for (NodeId c = f->doc.FirstChild(item); c != kInvalidNode;
         c = f->doc.NextSibling(c)) {
      if (f->doc.TagName(c) == "location" && f->doc.Value(c) == "africa") {
        found = true;
      }
    }
    EXPECT_TRUE(found) << item;
  }
}

TEST(EvaluatorTest, AnswersReturnedShrinkWithAccessibility) {
  // Figure 7's "answers returned" curve: lower accessibility ratios filter
  // more answers.
  size_t prev = 0;
  bool first = true;
  for (double ratio : {0.2, 0.5, 0.9}) {
    auto f = SecureFixture::Make(8000, 42, ratio);
    QueryEvaluator eval(f->store.get());
    EvalOptions secure;
    secure.semantics = AccessSemantics::kBinding;
    size_t total = 0;
    for (const char* q : kPaperQueries) {
      auto got = eval.EvaluateXPath(q, secure);
      ASSERT_TRUE(got.ok());
      total += got->answers.size();
    }
    if (!first) EXPECT_GE(total, prev) << "ratio " << ratio;
    prev = total;
    first = false;
  }
}

TEST(EvaluatorTest, AttributeQueries) {
  // Attributes are "@"-prefixed child nodes, addressable like elements.
  auto f = SecureFixture::Make(4000, 77, 1.0);
  QueryEvaluator eval(f->store.get());
  auto ids = eval.EvaluateXPath("//item/@id", EvalOptions{});
  auto items = eval.EvaluateXPath("//item", EvalOptions{});
  ASSERT_TRUE(ids.ok() && items.ok());
  EXPECT_EQ(ids->answers.size(), items->answers.size());
  auto by_id = eval.EvaluateXPath("//item[@id='item3']", EvalOptions{});
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(by_id->answers.size(), 1u);
}

TEST(EvaluatorTest, RejectsUnparsableQuery) {
  auto f = SecureFixture::Make(1000, 1, 0.5);
  QueryEvaluator eval(f->store.get());
  EXPECT_FALSE(eval.EvaluateXPath("not an xpath", {}).ok());
}

}  // namespace
}  // namespace secxml
