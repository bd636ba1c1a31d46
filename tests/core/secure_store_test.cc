#include "core/secure_store.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/policy.h"
#include "storage/paged_file.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

struct Fixture {
  Document doc;
  DolLabeling labeling;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

// Builds an XMark document with `subjects` MSO-propagated random subjects.
std::unique_ptr<Fixture> MakeFixture(uint32_t nodes, size_t subjects,
                                     uint64_t seed,
                                     NokStoreOptions options = {}) {
  auto f = std::make_unique<Fixture>();
  XMarkOptions xopts;
  xopts.seed = seed;
  xopts.target_nodes = nodes;
  EXPECT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  NodeId n = static_cast<NodeId>(f->doc.NumNodes());
  Rng rng(seed * 7 + 1);
  IntervalAccessMap map(n, subjects);
  for (SubjectId s = 0; s < subjects; ++s) {
    std::vector<AclSeed> seeds = {{0, rng.Bernoulli(0.5)}};
    for (int i = 0; i < 30; ++i) {
      seeds.push_back({static_cast<NodeId>(rng.Uniform(n)),
                       rng.Bernoulli(0.5)});
    }
    map.SetSubjectIntervals(s, PropagateMostSpecificOverride(f->doc, seeds));
  }
  EXPECT_TRUE(map.Validate().ok());
  f->labeling =
      DolLabeling::BuildFromEvents(n, map.InitialAcl(), map.CollectEvents());
  Status st = SecureStore::Build(f->doc, f->labeling, &f->file, options,
                                 &f->store);
  EXPECT_TRUE(st.ok()) << st;
  return f;
}

TEST(SecureStoreTest, AccessMatchesLogicalLabeling) {
  auto f = MakeFixture(3000, 4, 11);
  for (NodeId x = 0; x < f->store->num_nodes(); ++x) {
    for (SubjectId s = 0; s < 4; ++s) {
      auto got = f->store->Accessible(s, x);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, f->labeling.Accessible(s, x))
          << "node " << x << " subject " << s;
    }
  }
}

TEST(SecureStoreTest, EmbeddedTransitionCountTracksLabeling) {
  auto f = MakeFixture(5000, 3, 13);
  auto embedded = f->store->nok()->CountEmbeddedTransitions();
  ASSERT_TRUE(embedded.ok());
  // Every logical transition is either a page-initial node or an embedded
  // entry; embedded count is at most the logical count and the difference
  // is bounded by the page count.
  EXPECT_LE(*embedded, f->labeling.num_transitions());
  EXPECT_GE(*embedded + f->store->nok()->num_pages(),
            f->labeling.num_transitions());
}

TEST(SecureStoreTest, ExtractLabelingRoundTrips) {
  auto f = MakeFixture(4000, 5, 17);
  auto extracted = f->store->ExtractLabeling();
  ASSERT_TRUE(extracted.ok());
  ASSERT_TRUE(extracted->CheckInvariants().ok());
  ASSERT_EQ(extracted->num_transitions(), f->labeling.num_transitions());
  for (size_t i = 0; i < extracted->transitions().size(); ++i) {
    EXPECT_EQ(extracted->transitions()[i].node,
              f->labeling.transitions()[i].node);
  }
}

TEST(SecureStoreTest, BuildRejectsMismatchedLabeling) {
  Document doc;
  XMarkOptions xopts;
  xopts.target_nodes = 500;
  ASSERT_TRUE(GenerateXMark(xopts, &doc).ok());
  DenseAccessMap map(10, 1);  // wrong node count
  DolLabeling labeling = DolLabeling::Build(map);
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
  EXPECT_FALSE(SecureStore::Build(doc, labeling, &file, {}, &store).ok());
}

TEST(SecureStoreTest, PageSkipPredicates) {
  NokStoreOptions options;
  options.max_records_per_page = 64;
  auto f = MakeFixture(4000, 2, 19, options);
  const auto& infos = f->store->nok()->page_infos();
  int wholly_in = 0, wholly_acc = 0;
  for (size_t p = 0; p < infos.size(); ++p) {
    bool skip_claim = f->store->PageWhollyInaccessible(p, 0);
    bool acc_claim = f->store->PageWhollyAccessible(p, 0);
    wholly_in += skip_claim;
    wholly_acc += acc_claim;
    // Verify the claims against per-node truth.
    for (uint16_t i = 0; i < infos[p].num_records; ++i) {
      bool acc = f->labeling.Accessible(0, infos[p].first_node + i);
      if (skip_claim) ASSERT_FALSE(acc) << "page " << p;
      if (acc_claim) ASSERT_TRUE(acc) << "page " << p;
    }
  }
  // With structurally local ACLs most pages are uniform; both kinds occur.
  EXPECT_GT(wholly_in + wholly_acc, 0);
}

TEST(SecureStoreTest, AddRemoveSubjectsAreCodebookOnly) {
  auto f = MakeFixture(2000, 2, 23);
  uint64_t writes_before = f->store->io_stats().page_writes;
  auto s2_or = f->store->AddSubject(false);
  ASSERT_TRUE(s2_or.ok());
  SubjectId s2 = *s2_or;
  auto s3 = f->store->AddSubjectLike(0);
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(f->store->io_stats().page_writes, writes_before);
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(*s3, 3u);
  for (NodeId x = 0; x < f->store->num_nodes(); x += 29) {
    auto a = f->store->Accessible(s2, x);
    ASSERT_TRUE(a.ok());
    EXPECT_FALSE(*a);
    auto b = f->store->Accessible(*s3, x);
    auto orig = f->store->Accessible(0, x);
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(orig.ok());
    EXPECT_EQ(*b, *orig);
  }
  ASSERT_TRUE(f->store->RemoveSubject(*s3).ok());
  EXPECT_EQ(f->store->io_stats().page_writes, writes_before);
  EXPECT_EQ(f->store->codebook().num_subjects(), 3u);
}

TEST(SecureStoreTest, SetNodeAccessPhysically) {
  auto f = MakeFixture(2000, 2, 29);
  NodeId target = 777;
  auto before = f->store->Accessible(0, target);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(f->store->SetNodeAccess(target, 0, !*before).ok());
  auto after = f->store->Accessible(0, target);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, !*before);
  // Neighbours unaffected.
  for (NodeId x : {target - 1, target + 1}) {
    auto got = f->store->Accessible(0, x);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, f->labeling.Accessible(0, x));
  }
  // Other subject unaffected at the target.
  auto other = f->store->Accessible(1, target);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(*other, f->labeling.Accessible(1, target));
  EXPECT_TRUE(f->store->nok()->CheckIntegrity().ok());
}

TEST(SecureStoreTest, SetSubtreeAccessPhysically) {
  NokStoreOptions options;
  options.max_records_per_page = 64;
  auto f = MakeFixture(4000, 2, 31, options);
  // Pick a subtree that spans several pages.
  NodeId root = kInvalidNode;
  for (NodeId x = 0; x < f->store->num_nodes(); ++x) {
    if (f->doc.SubtreeSize(x) > 200 && f->doc.SubtreeSize(x) < 1000) {
      root = x;
      break;
    }
  }
  ASSERT_NE(root, kInvalidNode);
  NodeId end = f->doc.SubtreeEnd(root);
  ASSERT_TRUE(f->store->SetSubtreeAccess(root, 1, false).ok());
  for (NodeId x = 0; x < f->store->num_nodes(); x += 3) {
    auto got = f->store->Accessible(1, x);
    ASSERT_TRUE(got.ok());
    bool want = (x >= root && x < end) ? false : f->labeling.Accessible(1, x);
    ASSERT_EQ(*got, want) << "node " << x;
  }
  EXPECT_TRUE(f->store->nok()->CheckIntegrity().ok());
}

TEST(SecureStoreTest, PhysicalUpdatesMatchLogicalModel) {
  NokStoreOptions options;
  options.max_records_per_page = 80;
  options.transition_slack = 2;
  auto f = MakeFixture(3000, 3, 37, options);
  DolLabeling logical = f->labeling;  // copy as reference model
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    NodeId begin = static_cast<NodeId>(rng.Uniform(f->store->num_nodes()));
    NodeId end = begin + 1 + static_cast<NodeId>(rng.Uniform(
                             std::min<NodeId>(300, f->store->num_nodes() - begin)));
    SubjectId s = static_cast<SubjectId>(rng.Uniform(3));
    bool v = rng.Bernoulli(0.5);
    ASSERT_TRUE(f->store->SetRangeAccess(begin, end, s, v).ok());
    ASSERT_TRUE(logical.SetRangeAccess(begin, end, s, v).ok());
  }
  for (NodeId x = 0; x < f->store->num_nodes(); ++x) {
    for (SubjectId s = 0; s < 3; ++s) {
      auto got = f->store->Accessible(s, x);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, logical.Accessible(s, x)) << "node " << x;
    }
  }
  ASSERT_TRUE(f->store->nok()->CheckIntegrity().ok());
  // Physical and logical transition structure agree after extraction.
  auto extracted = f->store->ExtractLabeling();
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted->num_transitions(), logical.num_transitions());
}

TEST(SecureStoreTest, UpdateTouchesOnlyCoveredPages) {
  NokStoreOptions options;
  options.max_records_per_page = 100;
  auto f = MakeFixture(5000, 2, 41, options);
  ASSERT_TRUE(f->store->nok()->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(f->store->nok()->buffer_pool()->EvictAll().ok());
  f->store->nok()->buffer_pool()->mutable_stats()->Reset();
  // A ~500-node subtree spans about 5 pages of 100 records; the paper's
  // Section 3.4 predicts ceil(N/B) page reads and writes.
  NodeId begin = 1000, end = 1500;
  ASSERT_TRUE(f->store->SetRangeAccess(begin, end, 0, true).ok());
  ASSERT_TRUE(f->store->nok()->buffer_pool()->FlushAll().ok());
  const IoStats& stats = f->store->io_stats();
  EXPECT_LE(stats.page_reads, 7u);
  EXPECT_LE(stats.page_writes, 8u);  // +1 for a possible split
  EXPECT_GE(stats.page_reads, 5u);
}

TEST(SecureStoreTest, HiddenSubtreeIntervalsMatchBruteForce) {
  for (uint64_t seed : {43u, 47u, 53u}) {
    NokStoreOptions options;
    options.max_records_per_page = 64;
    auto f = MakeFixture(4000, 3, seed, options);
    for (SubjectId s = 0; s < 3; ++s) {
      auto got = f->store->HiddenSubtreeIntervals(s);
      ASSERT_TRUE(got.ok());
      // Brute force: a node is hidden iff any ancestor-or-self is
      // inaccessible.
      std::vector<bool> hidden(f->doc.NumNodes());
      for (NodeId x = 0; x < f->doc.NumNodes(); ++x) {
        NodeId p = f->doc.Parent(x);
        hidden[x] = (p != kInvalidNode && hidden[p]) ||
                    !f->labeling.Accessible(s, x);
      }
      std::vector<bool> from_intervals(f->doc.NumNodes(), false);
      NodeId prev_end = 0;
      for (const NodeInterval& iv : **got) {
        ASSERT_LT(iv.begin, iv.end);
        ASSERT_GE(iv.begin, prev_end);  // sorted, disjoint, maximal
        prev_end = iv.end;
        for (NodeId x = iv.begin; x < iv.end; ++x) from_intervals[x] = true;
      }
      for (NodeId x = 0; x < f->doc.NumNodes(); ++x) {
        ASSERT_EQ(from_intervals[x], hidden[x])
            << "seed " << seed << " subject " << s << " node " << x;
      }
    }
  }
}

TEST(SecureStoreTest, HiddenIntervalsAreCachedUntilUpdate) {
  NokStoreOptions options;
  options.max_records_per_page = 64;
  auto f = MakeFixture(4000, 2, 59, options);
  auto first = f->store->HiddenSubtreeIntervals(0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(f->store->nok()->buffer_pool()->EvictAll().ok());
  f->store->nok()->buffer_pool()->mutable_stats()->Reset();
  auto second = f->store->HiddenSubtreeIntervals(0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(**second, **first);
  EXPECT_EQ(f->store->io_stats().page_reads, 0u);  // served from the cache
  // A hit shares the cached intervals instead of copying them.
  EXPECT_EQ(second->get(), first->get());

  // An accessibility update invalidates: hiding the root hides everything.
  ASSERT_TRUE(f->store->SetNodeAccess(0, 0, false).ok());
  auto third = f->store->HiddenSubtreeIntervals(0);
  ASSERT_TRUE(third.ok());
  ASSERT_EQ((*third)->size(), 1u);
  EXPECT_EQ((**third)[0], (NodeInterval{0, f->store->num_nodes()}));
  // The first answer outlives the commit that dropped it from the cache.
  EXPECT_EQ(**first, **second);
}

TEST(SecureStoreTest, TinyBufferPoolStillCorrect) {
  // Two frames force constant eviction through every code path (pattern
  // matching, ACL lookups, updates); correctness must not depend on
  // residency, and nothing may deadlock on pins.
  NokStoreOptions options;
  options.max_records_per_page = 32;
  options.buffer_pool_pages = 2;
  auto f = MakeFixture(3000, 2, 61, options);
  for (NodeId x = 0; x < f->store->num_nodes(); x += 13) {
    auto got = f->store->Accessible(0, x);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, f->labeling.Accessible(0, x)) << x;
  }
  ASSERT_TRUE(f->store->SetRangeAccess(100, 900, 1, false).ok());
  for (NodeId x = 100; x < 900; x += 37) {
    auto got = f->store->Accessible(1, x);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(*got);
  }
  auto hidden = f->store->HiddenSubtreeIntervals(1);
  ASSERT_TRUE(hidden.ok());
  EXPECT_TRUE(f->store->nok()->CheckIntegrity().ok());
}

TEST(SecureStoreTest, HiddenIntervalsSkipUniformAccessiblePages) {
  NokStoreOptions options;
  options.max_records_per_page = 50;
  // Single subject with everything accessible: no page should be read.
  Document doc;
  XMarkOptions xopts;
  xopts.target_nodes = 3000;
  ASSERT_TRUE(GenerateXMark(xopts, &doc).ok());
  DenseAccessMap map(static_cast<NodeId>(doc.NumNodes()), 1, true);
  DolLabeling labeling = DolLabeling::Build(map);
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
  ASSERT_TRUE(SecureStore::Build(doc, labeling, &file, options, &store).ok());
  ASSERT_TRUE(store->nok()->buffer_pool()->EvictAll().ok());
  store->nok()->buffer_pool()->mutable_stats()->Reset();
  auto got = store->HiddenSubtreeIntervals(0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE((*got)->empty());
  EXPECT_EQ(store->io_stats().page_reads, 0u);
}

}  // namespace
}  // namespace secxml
