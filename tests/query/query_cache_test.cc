// Unit tests for the query layer's cache glue (DESIGN.md §14): the
// injective pattern normalization, the (class fingerprint, query, flags)
// key assembly, the ACL dependency footprint, and EvaluateWithCaches parity
// (a served hit is byte-identical to the live evaluation it replaced, and
// invalidation makes post-update probes miss).

#include "query/query_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "cache/result_cache.h"
#include "core/dol_labeling.h"
#include "core/policy.h"
#include "core/secure_store.h"
#include "query/evaluator.h"
#include "query/xpath_parser.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/xml_parser.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

// Death-test suite: gtest runs *DeathTest suites before everything else,
// which matters here — ResultCacheDisabled latches its env probe on first
// call, so the child process (fork) must check it before any test in this
// binary has latched the un-set state.
TEST(QueryCacheDeathTest, DisableEnvForcesResultCacheOff) {
  EXPECT_EXIT(
      {
        setenv("SECXML_DISABLE_RESULT_CACHE", "1", 1);
        cache::ResultCache rc;
        QueryCaches caches;
        caches.results = &rc;
        std::exit(ResultCacheDisabled() &&
                          caches.ResultsEnabled() == nullptr
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

PatternTree Parse(const std::string& xpath) {
  PatternTree p;
  EXPECT_TRUE(ParseXPath(xpath, &p).ok()) << xpath;
  return p;
}

TEST(NormalizePatternTest, SlashInTagDoesNotCollideWithStructure) {
  // The debug ToString renders both of these as "/a/b"; the normalized
  // encoding is length-prefixed and must keep them distinct.
  PatternTree slash_tag;
  slash_tag.nodes.emplace_back();
  slash_tag.nodes[0].tag = "a/b";
  PatternTree two_nodes = Parse("/a/b");
  EXPECT_NE(NormalizePattern(slash_tag), NormalizePattern(two_nodes));
}

TEST(NormalizePatternTest, DistinguishesEveryAnswerChangingField) {
  PatternTree base = Parse("/a/b");
  // Identical structure encodes identically (the whole point of a key).
  EXPECT_EQ(NormalizePattern(base), NormalizePattern(Parse("/a/b")));

  PatternTree axis = Parse("/a//b");
  EXPECT_NE(NormalizePattern(base), NormalizePattern(axis));

  PatternTree value = base;
  value.nodes[1].has_value = true;
  value.nodes[1].value = "x";
  EXPECT_NE(NormalizePattern(base), NormalizePattern(value));

  // A present-but-empty value test is not the same query as no value test.
  PatternTree empty_value = base;
  empty_value.nodes[1].has_value = true;
  EXPECT_NE(NormalizePattern(base), NormalizePattern(empty_value));

  PatternTree returning = base;
  returning.returning_node = 0;
  ASSERT_NE(base.returning_node, 0);
  EXPECT_NE(NormalizePattern(base), NormalizePattern(returning));

  // Same tag multiset, different shape: a[b][c] vs a[b/c].
  EXPECT_NE(NormalizePattern(Parse("/a[b]/c")),
            NormalizePattern(Parse("/a/b/c")));
}

TEST(MakeResultKeyTest, EveryFieldReachesTheKey) {
  ColumnFingerprint fp;
  fp.hi = 0xdeadbeef;
  fp.lo = 0x1234;
  cache::ResultKey k =
      MakeResultKey("normq", fp, AccessSemantics::kBinding, true);
  EXPECT_EQ(k.column_hi, 0xdeadbeefu);
  EXPECT_EQ(k.column_lo, 0x1234u);
  EXPECT_EQ(k.query, "normq");
  EXPECT_EQ(k.semantics, static_cast<uint8_t>(AccessSemantics::kBinding));
  EXPECT_TRUE(k.ordered);

  // Any single field difference yields a different key.
  EXPECT_NE(k, MakeResultKey("other", fp, AccessSemantics::kBinding, true));
  EXPECT_NE(k, MakeResultKey("normq", fp, AccessSemantics::kView, true));
  EXPECT_NE(k, MakeResultKey("normq", fp, AccessSemantics::kBinding, false));
  ColumnFingerprint fp2 = fp;
  fp2.lo ^= 1;
  EXPECT_NE(k, MakeResultKey("normq", fp2, AccessSemantics::kBinding, true));
}

/// Tiny hand-built store: tags a/b/c at known positions so footprints can
/// be checked against the actual posting lists.
struct SmallFixture {
  Document doc;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

void BuildSmall(SmallFixture* f) {
  ASSERT_TRUE(ParseXml("<root><a>1</a><b><a>2</a><c>3</c></b><a>4</a>"
                       "<c>5</c></root>",
                       &f->doc)
                  .ok());
  NodeId n = static_cast<NodeId>(f->doc.NumNodes());
  DenseAccessMap map(n, 2);
  for (SubjectId s = 0; s < 2; ++s) map.SetSubtree(f->doc, s, 0, true);
  NokStoreOptions sopts;
  sopts.max_records_per_page = 4;
  ASSERT_TRUE(SecureStore::Build(f->doc, DolLabeling::Build(map), &f->file,
                                 sopts, &f->store)
                  .ok());
}

void FootprintOf(SecureStore* store, const std::string& xpath,
                 AccessSemantics sem, uint64_t* begin, uint64_t* end,
                 bool* indep) {
  PreparedQuery pq;
  ASSERT_TRUE(PrepareQuery(Parse(xpath), &pq).ok());
  QueryFootprint(store, pq, sem, begin, end, indep);
}

TEST(QueryFootprintTest, BindingIsThePostingHull) {
  SmallFixture f;
  BuildSmall(&f);
  NokStore* nok = f.store->nok();
  const auto& a = nok->Postings(nok->tags().Lookup("a"));
  const auto& c = nok->Postings(nok->tags().Lookup("c"));
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(c.empty());

  uint64_t begin = 0, end = 0;
  bool indep = true;
  FootprintOf(f.store.get(), "//a", AccessSemantics::kBinding, &begin, &end,
              &indep);
  EXPECT_FALSE(indep);
  EXPECT_EQ(begin, a.front());
  EXPECT_EQ(end, static_cast<uint64_t>(a.back()) + 1);

  // Multiple tags take the hull over all of them.
  FootprintOf(f.store.get(), "//a/c", AccessSemantics::kBinding, &begin,
              &end, &indep);
  EXPECT_FALSE(indep);
  EXPECT_EQ(begin, std::min<uint64_t>(a.front(), c.front()));
  EXPECT_EQ(end, std::max<uint64_t>(a.back(), c.back()) + 1);
}

TEST(QueryFootprintTest, ViewExtendsToDocumentStart) {
  SmallFixture f;
  BuildSmall(&f);
  NokStore* nok = f.store->nok();
  const auto& a = nok->Postings(nok->tags().Lookup("a"));
  uint64_t begin = 99, end = 0;
  bool indep = true;
  // A view-suppressed match root hides under an inaccessible *ancestor*,
  // and ancestors precede the subtree in document order.
  FootprintOf(f.store.get(), "//a", AccessSemantics::kView, &begin, &end,
              &indep);
  EXPECT_FALSE(indep);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, static_cast<uint64_t>(a.back()) + 1);
}

TEST(QueryFootprintTest, WildcardCoversTheWholeDocument) {
  SmallFixture f;
  BuildSmall(&f);
  uint64_t begin = 99, end = 0;
  bool indep = true;
  FootprintOf(f.store.get(), "//*", AccessSemantics::kBinding, &begin, &end,
              &indep);
  EXPECT_FALSE(indep);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, f.store->nok()->num_nodes());
}

TEST(QueryFootprintTest, AbsentTagAndNoneSemanticsAreAclIndependent) {
  SmallFixture f;
  BuildSmall(&f);
  uint64_t begin = 0, end = 0;
  bool indep = false;
  // No node carries the tag: the answer is empty under every ACL.
  FootprintOf(f.store.get(), "//nosuchtag", AccessSemantics::kBinding,
              &begin, &end, &indep);
  EXPECT_TRUE(indep);
  indep = false;
  FootprintOf(f.store.get(), "//a", AccessSemantics::kNone, &begin, &end,
              &indep);
  EXPECT_TRUE(indep);
}

/// XMark fixture with column-equal subjects (profiles), as in
/// batch_eval_test: subjects s and s + kProfiles share a codebook column.
struct Fixture {
  Document doc;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

void BuildFixture(uint64_t seed, size_t num_subjects, size_t num_profiles,
                  Fixture* f) {
  XMarkOptions xopts;
  xopts.seed = seed + 900;
  xopts.target_nodes = 1500;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  IntervalAccessMap map(static_cast<NodeId>(f->doc.NumNodes()), num_subjects);
  for (SubjectId s = 0; s < num_subjects; ++s) {
    SyntheticAclOptions aopts;
    aopts.seed = seed * 100 + s % num_profiles;
    aopts.accessibility_ratio = 0.6;
    map.SetSubjectIntervals(s, GenerateSyntheticAcl(f->doc, aopts));
  }
  DolLabeling labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;
  ASSERT_TRUE(
      SecureStore::Build(f->doc, labeling, &f->file, sopts, &f->store).ok());
}

struct CacheRig {
  cache::ResultCache results;
  QueryPlanCache plans;
  QueryCaches caches;
  explicit CacheRig(SecureStore* store) {
    caches.results = &results;
    caches.plans = &plans;
    AttachResultCacheInvalidation(store, &results);
  }
};

TEST(EvaluateWithCachesTest, HitIsByteIdenticalToLiveEvaluation) {
  if (ResultCacheDisabled()) {
    GTEST_SKIP() << "hit/miss behavior is the subject under test; the "
                    "disabled-cache leg covers parity via the differential "
                    "suite instead";
  }
  Fixture f;
  BuildFixture(3, /*num_subjects=*/6, /*num_profiles=*/3, &f);
  CacheRig rig(f.store.get());
  QueryEvaluator eval(f.store.get());
  QueryEvaluator plain(f.store.get());

  for (int qi = 0; qi < 3; ++qi) {
    QueryGenOptions qopts;
    qopts.seed = 400 + static_cast<uint64_t>(qi);
    qopts.max_nodes = 3;
    PatternTree q = GenerateTwigQuery(f.doc, qopts);
    for (SubjectId s = 0; s < 3; ++s) {
      EvalOptions opts;
      opts.semantics = AccessSemantics::kBinding;
      opts.subject = s;
      auto miss = EvaluateWithCaches(f.store.get(), &eval, q, opts,
                                     rig.caches);
      ASSERT_TRUE(miss.ok()) << miss.status();
      EXPECT_EQ(miss->exec.result_cache_misses, 1u);
      EXPECT_EQ(miss->exec.result_cache_hits, 0u);

      auto hit = EvaluateWithCaches(f.store.get(), &eval, q, opts,
                                    rig.caches);
      ASSERT_TRUE(hit.ok()) << hit.status();
      EXPECT_EQ(hit->exec.result_cache_hits, 1u);
      // A hit does none of the saved work.
      EXPECT_EQ(hit->exec.nodes_scanned, 0u);
      EXPECT_EQ(hit->exec.codes_checked, 0u);

      auto live = plain.Evaluate(q, opts);
      ASSERT_TRUE(live.ok());
      EXPECT_EQ(miss->answers, live->answers);
      EXPECT_EQ(hit->answers, live->answers);
      EXPECT_EQ(hit->fragment_matches, live->fragment_matches);

      // Column-equal subject (s + 3 draws the same ACL profile): its first
      // probe is already a hit — the key is the class, not the subject id.
      EvalOptions twin = opts;
      twin.subject = s + 3;
      auto shared = EvaluateWithCaches(f.store.get(), &eval, q, twin,
                                       rig.caches);
      ASSERT_TRUE(shared.ok());
      EXPECT_EQ(shared->exec.result_cache_hits, 1u);
      auto twin_live = plain.Evaluate(q, twin);
      ASSERT_TRUE(twin_live.ok());
      EXPECT_EQ(shared->answers, twin_live->answers);
    }
  }
  // Plans resolved once per distinct pattern, not once per evaluation.
  EXPECT_LE(rig.plans.entries(), 3u);
  EXPECT_GT(rig.plans.hits(), 0u);
}

TEST(EvaluateWithCachesTest, CommitsInvalidatePreciselyAndServeFresh) {
  if (ResultCacheDisabled()) {
    GTEST_SKIP() << "invalidation behavior requires a live result cache";
  }
  Fixture f;
  BuildFixture(5, /*num_subjects=*/8, /*num_profiles=*/8, &f);
  CacheRig rig(f.store.get());
  QueryEvaluator eval(f.store.get());
  QueryEvaluator plain(f.store.get());

  // A fixed XMark query whose tags certainly exist, so the footprint is a
  // real range (GenerateTwigQuery could land on an acl-independent shape).
  PatternTree q = Parse("//item/name");
  EvalOptions opts;
  opts.semantics = AccessSemantics::kBinding;
  opts.subject = 1;

  PreparedQuery pq;
  ASSERT_TRUE(PrepareQuery(q, &pq).ok());
  uint64_t fp_begin = 0, fp_end = 0;
  bool indep = false;
  QueryFootprint(f.store.get(), pq, opts.semantics, &fp_begin, &fp_end,
                 &indep);
  ASSERT_FALSE(indep);

  auto warm = [&]() {
    auto r = EvaluateWithCaches(f.store.get(), &eval, q, opts, rig.caches);
    ASSERT_TRUE(r.ok()) << r.status();
  };
  auto probe_hits = [&](SubjectId subject = 1) -> bool {
    EvalOptions o = opts;
    o.subject = subject;
    auto r = EvaluateWithCaches(f.store.get(), &eval, q, o, rig.caches);
    EXPECT_TRUE(r.ok()) << r.status();
    auto live = plain.Evaluate(q, o);
    EXPECT_TRUE(live.ok());
    EXPECT_EQ(r->answers, live->answers);  // hit or miss, always fresh
    return r->exec.result_cache_hits == 1;
  };

  warm();
  ASSERT_TRUE(probe_hits());

  // An ACL patch inside the footprint erases the entry: next probe misses
  // and re-evaluates against the new snapshot.
  NodeId mid = static_cast<NodeId>((fp_begin + fp_end) / 2);
  ASSERT_TRUE(f.store->SetRangeAccess(mid, mid + 1, 1, false).ok());
  EXPECT_FALSE(probe_hits());
  EXPECT_TRUE(probe_hits());

  // A patch of subject 1's own class *outside* the footprint leaves the
  // entry alone. Revoking, re-granting and revoking again makes the last
  // revoke remap only onto existing entries, so it keeps every fingerprint
  // (an appending patch turns every key over; see below).
  if (fp_end < f.store->num_nodes()) {
    const NodeId outside = static_cast<NodeId>(fp_end);
    const NodeId n = f.store->num_nodes();
    ASSERT_TRUE(f.store->SetRangeAccess(outside, n, 1, false).ok());
    ASSERT_TRUE(f.store->SetRangeAccess(outside, n, 1, true).ok());
    (void)probe_hits();
    ASSERT_TRUE(probe_hits());
    const size_t entries = f.store->codebook().size();
    ASSERT_TRUE(f.store->SetRangeAccess(outside, n, 1, false).ok());
    ASSERT_EQ(f.store->codebook().size(), entries);
    EXPECT_TRUE(probe_hits());
  }

  // Class scoping: an ACL patch for subject 0 can change only the answers
  // of subject 0's class. Cache subject 0's answer beside subject 1's.
  ASSERT_NE(f.store->SubjectColumnFingerprint(0),
            f.store->SubjectColumnFingerprint(1));
  (void)probe_hits(0);
  ASSERT_TRUE(probe_hits(0));
  ASSERT_TRUE(probe_hits(1));
  // A node inside the footprint where flipping subject 0's access needs
  // an ACL the codebook lacks.
  NodeId x = kInvalidNode;
  bool had_access = false;
  {
    const Codebook& cb = f.store->codebook();
    for (NodeId n = static_cast<NodeId>(fp_begin); n < fp_end; ++n) {
      auto code = f.store->nok()->AccessCode(n);
      ASSERT_TRUE(code.ok()) << code.status();
      BitVector flipped = cb.Entry(*code);
      flipped.Set(0, !cb.Accessible(*code, 0));
      if (cb.Find(flipped) == kInvalidAccessCode) {
        x = n;
        had_access = cb.Accessible(*code, 0);
        break;
      }
    }
  }
  ASSERT_NE(x, kInvalidNode);

  // The first flip appends an entry: every column grows, so every
  // fingerprint — subject 1's too — turns over and both classes miss.
  const size_t entries_before = f.store->codebook().size();
  const ColumnFingerprint fp1 = f.store->SubjectColumnFingerprint(1);
  ASSERT_TRUE(f.store->SetRangeAccess(x, x + 1, 0, !had_access).ok());
  ASSERT_GT(f.store->codebook().size(), entries_before);
  EXPECT_NE(f.store->SubjectColumnFingerprint(1), fp1);
  EXPECT_FALSE(probe_hits(1));
  EXPECT_FALSE(probe_hits(0));

  // After flipping back, every ACL a flip of x maps onto exists, so the
  // repeated flip appends nothing and keeps every fingerprint.
  ASSERT_TRUE(f.store->SetRangeAccess(x, x + 1, 0, had_access).ok());
  (void)probe_hits(0);
  (void)probe_hits(1);
  ASSERT_TRUE(probe_hits(0));
  ASSERT_TRUE(probe_hits(1));
  const size_t entries_restored = f.store->codebook().size();
  const uint64_t invalidated = rig.results.stats().invalidated;
  ASSERT_TRUE(f.store->SetRangeAccess(x, x + 1, 0, !had_access).ok());
  ASSERT_EQ(f.store->codebook().size(), entries_restored);
  // Subject 1's entry survives a patch inside its footprint...
  EXPECT_TRUE(probe_hits(1));
  // ...while subject 0's own entry is erased and comes back fresh.
  EXPECT_FALSE(probe_hits(0));
  EXPECT_TRUE(probe_hits(0));
  EXPECT_EQ(rig.results.stats().invalidated, invalidated + 1);

  // Adding a subject is a no-op for existing columns and answers.
  ASSERT_TRUE(f.store->AddSubject(false).ok());
  EXPECT_TRUE(probe_hits());

  // A structural update flushes everything.
  NodeId victim = 1;
  while (f.doc.SubtreeSize(victim) < 5) ++victim;
  ASSERT_TRUE(f.store->DeleteSubtree(victim).ok());
  EXPECT_FALSE(probe_hits());
  EXPECT_TRUE(probe_hits());
  EXPECT_GE(rig.results.stats().flushes, 1u);
}

TEST(EvaluateWithCachesTest, NullCachesDegenerateToPlainEvaluate) {
  Fixture f;
  BuildFixture(7, /*num_subjects=*/2, /*num_profiles=*/2, &f);
  QueryEvaluator eval(f.store.get());
  QueryEvaluator plain(f.store.get());
  QueryGenOptions qopts;
  qopts.seed = 55;
  qopts.max_nodes = 3;
  PatternTree q = GenerateTwigQuery(f.doc, qopts);
  EvalOptions opts;
  opts.semantics = AccessSemantics::kView;
  opts.subject = 0;
  auto r = EvaluateWithCaches(f.store.get(), &eval, q, opts, QueryCaches{});
  auto want = plain.Evaluate(q, opts);
  ASSERT_TRUE(r.ok() && want.ok());
  EXPECT_EQ(r->answers, want->answers);
  EXPECT_EQ(r->exec.result_cache_hits, 0u);
  EXPECT_EQ(r->exec.result_cache_misses, 0u);
}

}  // namespace
}  // namespace secxml
