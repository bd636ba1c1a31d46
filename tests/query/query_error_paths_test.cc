// Negative paths of the query front end: malformed XPath strings and
// malformed pattern trees must come back as clean InvalidArgument statuses
// (exercised under ASan in CI — no crashes, no leaks), evaluating against
// unknown tags must degrade gracefully rather than fault, and an unknown
// subject is InvalidArgument at every entry point.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/accessibility_map.h"
#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "query/batch_evaluator.h"
#include "query/decomposer.h"
#include "query/evaluator.h"
#include "query/query_cache.h"
#include "query/query_driver.h"
#include "query/xpath_parser.h"
#include "storage/paged_file.h"
#include "xml/xml_parser.h"

namespace secxml {
namespace {

void ExpectParseError(const std::string& xpath, const std::string& needle) {
  PatternTree tree;
  Status st = ParseXPath(xpath, &tree);
  ASSERT_FALSE(st.ok()) << "parsed: " << xpath;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << xpath;
  EXPECT_NE(st.ToString().find(needle), std::string::npos)
      << xpath << " -> " << st.ToString();
}

TEST(XPathErrorPathsTest, MalformedQueriesReturnInvalidArgument) {
  ExpectParseError("", "query must start with '/' or '//'");
  ExpectParseError("site", "query must start with '/' or '//'");
  ExpectParseError("/", "expected name");
  ExpectParseError("//", "expected name");
  ExpectParseError("/site/", "expected name");
  ExpectParseError("/site//", "expected name");
  ExpectParseError("/site[", "expected name");
  ExpectParseError("/site[]", "expected name");
  ExpectParseError("/site[name", "expected ']'");
  ExpectParseError("/site[name]extra", "expected '/' or '//'");
  ExpectParseError("/site[name=", "expected quoted value");
  ExpectParseError("/site[name=x]", "expected quoted value");
  ExpectParseError("/site[name='v]", "unterminated value");
  ExpectParseError("/site[a[b[c", "expected ']'");
}

TEST(XPathErrorPathsTest, DeeplyNestedPredicatesAreRejectedNotOverflowed) {
  // 40 nested predicates exceed the parser's depth cap; the error must be a
  // clean status, not a stack overflow.
  std::string q = "/r";
  for (int i = 0; i < 40; ++i) q += "[a";
  for (int i = 0; i < 40; ++i) q += "]";
  ExpectParseError(q, "nested too deeply");
}

TEST(XPathErrorPathsTest, BoundaryDepthStillParses) {
  std::string q = "/r";
  for (int i = 0; i < 30; ++i) q += "[a";
  for (int i = 0; i < 30; ++i) q += "]";
  PatternTree tree;
  EXPECT_TRUE(ParseXPath(q, &tree).ok());
}

TEST(PatternTreeErrorPathsTest, DecomposeRejectsMalformedTrees) {
  // Decompose revalidates; every malformed tree must bounce cleanly.
  DecomposedQuery out;

  PatternTree empty;
  EXPECT_EQ(Decompose(empty, &out).code(), StatusCode::kInvalidArgument);

  PatternTree rooted;
  rooted.nodes.emplace_back();
  rooted.nodes[0].tag = "a";
  rooted.nodes[0].parent = 0;  // root may not have a parent
  EXPECT_EQ(Decompose(rooted, &out).code(), StatusCode::kInvalidArgument);

  PatternTree bad_return;
  bad_return.nodes.emplace_back();
  bad_return.nodes[0].tag = "a";
  bad_return.returning_node = 3;
  EXPECT_EQ(Decompose(bad_return, &out).code(),
            StatusCode::kInvalidArgument);

  PatternTree empty_tag;
  empty_tag.nodes.emplace_back();
  empty_tag.nodes[0].tag = "a";
  empty_tag.nodes.emplace_back();
  empty_tag.nodes[1].parent = 0;
  empty_tag.nodes[0].children.push_back(1);  // tag left empty
  EXPECT_EQ(Decompose(empty_tag, &out).code(), StatusCode::kInvalidArgument);

  PatternTree bad_link;
  bad_link.nodes.emplace_back();
  bad_link.nodes[0].tag = "a";
  bad_link.nodes.emplace_back();
  bad_link.nodes[1].tag = "b";
  bad_link.nodes[1].parent = 7;  // dangling parent
  EXPECT_EQ(Decompose(bad_link, &out).code(), StatusCode::kInvalidArgument);

  PatternTree mislinked;
  mislinked.nodes.emplace_back();
  mislinked.nodes[0].tag = "a";
  mislinked.nodes.emplace_back();
  mislinked.nodes[1].tag = "b";
  mislinked.nodes[1].parent = 0;
  mislinked.nodes.emplace_back();
  mislinked.nodes[2].tag = "c";
  mislinked.nodes[2].parent = 1;
  mislinked.nodes[0].children = {1, 2};  // 2's parent is 1, not 0
  mislinked.nodes[1].children = {2};
  EXPECT_EQ(Decompose(mislinked, &out).code(), StatusCode::kInvalidArgument);
}

struct Fixture {
  Document doc;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

void BuildTinyFixture(Fixture* f) {
  ASSERT_TRUE(
      ParseXml("<r><a><b/></a><a><b/><c/></a></r>", &f->doc).ok());
  DenseAccessMap map(f->doc.NumNodes(), /*num_subjects=*/1,
                     /*default_access=*/true);
  DolLabeling labeling = DolLabeling::Build(map);
  NokStoreOptions sopts;
  ASSERT_TRUE(
      SecureStore::Build(f->doc, labeling, &f->file, sopts, &f->store).ok());
}

TEST(EvaluatorErrorPathsTest, UnknownTagsYieldEmptyAnswersNotErrors) {
  Fixture f;
  BuildTinyFixture(&f);
  QueryEvaluator eval(f.store.get());
  EvalOptions opts;
  for (const char* q : {"//nosuch", "/r/nosuch", "//a[nosuch]",
                        "/nosuch//a"}) {
    auto r = eval.EvaluateXPath(q, opts);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status();
    EXPECT_TRUE(r->answers.empty()) << q;
  }
}

// One contract at every entry point: a subject the store does not know is
// InvalidArgument under access-controlled semantics, raised before any
// cache probe or scan — never the empty answer of an all-denied column.
// Subject-independent evaluation (kNone) ignores the subject.
TEST(EvaluatorErrorPathsTest, UnknownSubjectIsInvalidArgument) {
  Fixture f;
  BuildTinyFixture(&f);
  SecureStore* store = f.store.get();
  PatternTree pattern;
  ASSERT_TRUE(ParseXPath("//a", &pattern).ok());
  constexpr SubjectId kUnknown = 99;  // only subject 0 exists
  const std::vector<SubjectId> mixed = {0, kUnknown};

  cache::ResultCache results;
  QueryPlanCache plans;
  AttachResultCacheInvalidation(store, &results);
  QueryCaches cached;
  cached.results = &results;
  cached.plans = &plans;

  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    QueryEvaluator eval(store);
    EvalOptions opts;
    opts.semantics = sem;
    opts.subject = kUnknown;
    auto r = eval.EvaluateXPath("//a", opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

    for (const QueryCaches& caches : {QueryCaches{}, cached}) {
      // An all-denied answer for a real subject could sit in the cache
      // under the unknown subject's fingerprint; the check precedes it.
      r = EvaluateWithCaches(store, &eval, pattern, opts, caches);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

      BatchEvaluator batch(store, caches);
      for (const std::vector<SubjectId>& subjects :
           {std::vector<SubjectId>{kUnknown}, mixed}) {
        auto b = batch.Evaluate(pattern, subjects, opts);
        ASSERT_FALSE(b.ok());
        EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument);
      }

      QueryDriverOptions dopts;
      dopts.semantics = sem;
      dopts.caches = caches;
      QueryDriver driver(store, dopts);
      auto b = driver.EvaluateForSubjects(pattern, mixed);
      ASSERT_FALSE(b.ok());
      EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument);
      // In a QueryDriver::Run batch only the unknown subject's job fails.
      BatchResult run = driver.Run({{0, pattern}, {kUnknown, pattern}});
      ASSERT_TRUE(run.outcomes[0].status.ok()) << run.outcomes[0].status;
      EXPECT_EQ(run.outcomes[0].result.answers,
                (std::vector<NodeId>{1, 3}));
      EXPECT_EQ(run.outcomes[1].status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(run.stats.failed, 1u);
    }
  }

  // Without access control the subject plays no part.
  QueryEvaluator eval(store);
  EvalOptions none;
  none.semantics = AccessSemantics::kNone;
  none.subject = kUnknown;
  auto r = eval.EvaluateXPath("//a", none);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->answers, (std::vector<NodeId>{1, 3}));
  BatchEvaluator batch(store);
  auto b = batch.Evaluate(pattern, mixed, none);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b->ResultFor(1).answers, (std::vector<NodeId>{1, 3}));
}

TEST(EvaluatorErrorPathsTest, MalformedXPathSurfacesThroughEvaluate) {
  Fixture f;
  BuildTinyFixture(&f);
  QueryEvaluator eval(f.store.get());
  EvalOptions opts;
  auto r = eval.EvaluateXPath("a[b", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace secxml
