// Exercises the execution layer (src/exec) directly against the primitives
// it unified:
//  - SecureCursor::FetchCandidate agrees with SecureStore::Accessible on
//    every node, page skip on or off;
//  - the cursor's column-derived page verdicts and the header-direct
//    SecureStore::PageWholly* tests agree on every page of a seeded store
//    for every subject, and match per-node ground truth (the
//    single-classification regression — both run through ClassifyPage);
//  - ChildWalk yields exactly the children a manual FollowingSibling walk
//    yields, with per-child accessibility matching the store;
//  - LabelStreamCursor agrees with DolLabeling::Accessible in monotone
//    sweeps, including forward gaps (a stream filter skipping suppressed
//    subtrees never checks the nodes inside them);
//  - ExecStats invariants: access_only_fetches is structurally zero and
//    every scanned record is ACCESS-checked.

#include "exec/secure_cursor.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "exec/label_cursor.h"
#include "storage/paged_file.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr size_t kNumSubjects = 3;

struct Fixture {
  Document doc;
  DolLabeling labeling;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

void BuildFixture(Fixture* f, double accessibility = 0.4,
                  uint64_t seed = 17) {
  XMarkOptions xopts;
  xopts.seed = seed;
  xopts.target_nodes = 1500;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  SyntheticAclOptions aopts;
  aopts.seed = seed + 100;
  aopts.accessibility_ratio = accessibility;
  IntervalAccessMap map = GenerateSyntheticAclMap(f->doc, kNumSubjects, aopts);
  f->labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;  // many pages => real skip behavior
  ASSERT_TRUE(
      SecureStore::Build(f->doc, f->labeling, &f->file, sopts, &f->store)
          .ok());
}

TEST(SecureCursorTest, FetchCandidateAgreesWithStoreAccessible) {
  Fixture f;
  BuildFixture(&f);
  for (SubjectId s = 0; s < kNumSubjects; ++s) {
    for (bool page_skip : {true, false}) {
      SecureCursor cursor(f.store.get(), {/*secure=*/true, s, page_skip});
      ASSERT_TRUE(cursor.Attach().ok());
      cursor.BeginScan();
      for (NodeId n = 0; n < f.store->num_nodes(); ++n) {
        NokRecord rec{};
        bool accessible = true;
        auto fetched = cursor.FetchCandidate(n, &rec, &accessible);
        ASSERT_TRUE(fetched.ok()) << fetched.status();
        auto want = f.store->Accessible(s, n);
        ASSERT_TRUE(want.ok()) << want.status();
        if (!*fetched) {
          // Skipped without loading: only allowed when the whole page is
          // provably dead, which implies the node is inaccessible.
          EXPECT_TRUE(page_skip);
          EXPECT_FALSE(*want) << "node " << n << " subject " << s;
        } else {
          EXPECT_EQ(accessible, *want) << "node " << n << " subject " << s;
          auto direct = f.store->nok()->Record(n);
          ASSERT_TRUE(direct.ok());
          EXPECT_EQ(rec.tag, direct->tag);
          EXPECT_EQ(rec.depth, direct->depth);
          EXPECT_EQ(rec.subtree_size, direct->subtree_size);
        }
      }
      EXPECT_EQ(cursor.stats().access_only_fetches, 0u);
    }
  }
}

// The single-classification regression: the cursor's page verdicts (the
// attached column's bit for first_code) and the header-direct SecureStore
// probes (a codebook probe for first_code) classify every page of a seeded
// document identically for every subject, and both are sound against the
// embedded per-node codes.
TEST(SecureCursorTest, PageVerdictsAgreeWithHeaderDirectProbes) {
  Fixture f;
  BuildFixture(&f);
  size_t dead_pages = 0;
  for (SubjectId s = 0; s < kNumSubjects; ++s) {
    SecureCursor cursor(f.store.get(), {/*secure=*/true, s});
    ASSERT_TRUE(cursor.Attach().ok());
    for (size_t p = 0; p < f.store->nok()->num_pages(); ++p) {
      EXPECT_EQ(cursor.PageWhollyDead(p),
                f.store->PageWhollyInaccessible(p, s))
          << "page " << p << " subject " << s;
      if (cursor.PageWhollyDead(p)) ++dead_pages;
      // Ground truth from the embedded codes: a "wholly dead" verdict must
      // mean every node in the page is inaccessible (and dually for live).
      const auto& info = f.store->nok()->page_infos()[p];
      bool all_dead = true, all_live = true;
      for (NodeId n = info.first_node;
           n < info.first_node + info.num_records; ++n) {
        auto acc = f.store->Accessible(s, n);
        ASSERT_TRUE(acc.ok());
        (*acc ? all_dead : all_live) = false;
      }
      if (f.store->PageWhollyInaccessible(p, s)) EXPECT_TRUE(all_dead);
      if (f.store->PageWhollyAccessible(p, s)) EXPECT_TRUE(all_live);
    }
  }
  // The fixture's 40% accessibility over 32-record pages yields dead pages,
  // so the comparison above is not vacuous.
  EXPECT_GT(dead_pages, 0u);
}

TEST(SecureCursorTest, AttachRejectsUnknownSubject) {
  Fixture f;
  BuildFixture(&f);
  SecureCursor cursor(f.store.get(),
                      {/*secure=*/true, static_cast<SubjectId>(kNumSubjects)});
  Status st = cursor.Attach();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  // Out-of-range codes (corrupt page bytes) deny instead of reading past
  // the column.
  SecureCursor known(f.store.get(), {/*secure=*/true, /*subject=*/0});
  ASSERT_TRUE(known.Attach().ok());
  EXPECT_FALSE(known.CodeAccessible(
      static_cast<uint32_t>(f.store->codebook().size())));
  EXPECT_FALSE(known.CodeAccessible(0xFFFFFFFFu));
}

TEST(SecureCursorTest, ChildWalkMatchesManualWalk) {
  Fixture f;
  BuildFixture(&f);
  NokStore* nok = f.store->nok();

  // Manual reference walk over the root's children.
  auto manual_children = [&](NodeId parent) {
    std::vector<NodeId> out;
    NokRecord prec = *nok->Record(parent);
    NodeId end = parent + prec.subtree_size;
    NodeId c = NokStore::FirstChild(parent, prec);
    while (c != kInvalidNode) {
      out.push_back(c);
      NokRecord crec = *nok->Record(c);
      c = NokStore::FollowingSibling(c, crec, end);
    }
    return out;
  };

  for (NodeId parent : {NodeId{0}, NodeId{1}}) {
    std::vector<NodeId> want = manual_children(parent);
    NokRecord prec = *nok->Record(parent);

    // Non-secure walk: every child, in order.
    {
      SecureCursor cursor(f.store.get(), {});
      ASSERT_TRUE(cursor.Attach().ok());
      cursor.BeginScan();
      SecureCursor::ChildWalk walk(&cursor, parent, prec);
      std::vector<NodeId> got;
      NodeId u = kInvalidNode;
      NokRecord rec{};
      bool acc = true;
      for (;;) {
        auto more = walk.Next(&u, &rec, &acc);
        ASSERT_TRUE(more.ok());
        if (!*more) break;
        got.push_back(u);
        EXPECT_TRUE(acc);
      }
      EXPECT_EQ(got, want);
    }

    // Secure walk without page skip: same children, accessibility flags
    // matching the store. With page skip: a subsequence, and everything
    // dropped lies in a wholly-dead page (hence inaccessible).
    for (SubjectId s = 0; s < kNumSubjects; ++s) {
      for (bool page_skip : {false, true}) {
        SecureCursor cursor(f.store.get(), {/*secure=*/true, s, page_skip});
        ASSERT_TRUE(cursor.Attach().ok());
        cursor.BeginScan();
        SecureCursor::ChildWalk walk(&cursor, parent, prec);
        std::vector<NodeId> got;
        NodeId u = kInvalidNode;
        NokRecord rec{};
        bool acc = true;
        size_t wi = 0;
        for (;;) {
          auto more = walk.Next(&u, &rec, &acc);
          ASSERT_TRUE(more.ok());
          if (!*more) break;
          got.push_back(u);
          EXPECT_EQ(acc, *f.store->Accessible(s, u)) << "child " << u;
          // Children skipped over (page-skip mode) must be inaccessible.
          while (wi < want.size() && want[wi] != u) {
            EXPECT_TRUE(page_skip);
            EXPECT_FALSE(*f.store->Accessible(s, want[wi]))
                << "skipped child " << want[wi] << " subject " << s;
            ++wi;
          }
          ASSERT_LT(wi, want.size());
          ++wi;
        }
        while (wi < want.size()) {
          EXPECT_TRUE(page_skip);
          EXPECT_FALSE(*f.store->Accessible(s, want[wi]));
          ++wi;
        }
        if (!page_skip) EXPECT_EQ(got, want);
      }
    }
  }
}

TEST(SecureCursorTest, LabelStreamCursorMatchesLabeling) {
  Fixture f;
  BuildFixture(&f);
  const DolLabeling& labeling = f.labeling;
  for (SubjectId s = 0; s < kNumSubjects; ++s) {
    // Dense monotone sweep.
    LabelStreamCursor dense(&labeling, s);
    for (NodeId n = 0; n < labeling.num_nodes(); ++n) {
      EXPECT_EQ(dense.Accessible(n), labeling.Accessible(s, n))
          << "node " << n << " subject " << s;
    }
    EXPECT_EQ(dense.stats().nodes_scanned, labeling.num_nodes());
    EXPECT_EQ(dense.stats().codes_checked, labeling.num_nodes());

    // Sweep with forward gaps (a filter skipping suppressed subtrees
    // never consults the nodes inside them).
    LabelStreamCursor gappy(&labeling, s);
    for (NodeId n = 0; n < labeling.num_nodes(); n += 1 + n % 7) {
      EXPECT_EQ(gappy.Accessible(n), labeling.Accessible(s, n))
          << "node " << n << " subject " << s;
    }
  }
}

TEST(SecureCursorTest, ScanStatsInvariants) {
  Fixture f;
  BuildFixture(&f);
  SecureCursor cursor(f.store.get(), {/*secure=*/true, /*subject=*/0,
                                      /*page_skip=*/true});
  ASSERT_TRUE(cursor.Attach().ok());
  cursor.BeginScan();
  for (NodeId n = 0; n < f.store->num_nodes(); ++n) {
    NokRecord rec{};
    bool acc = true;
    ASSERT_TRUE(cursor.FetchCandidate(n, &rec, &acc).ok());
  }
  const ExecStats& st = cursor.stats();
  // The zero-extra-I/O property as a structural invariant.
  EXPECT_EQ(st.access_only_fetches, 0u);
  // Every materialized record was ACCESS-checked; nothing is elided.
  EXPECT_EQ(st.nodes_scanned, st.codes_checked);
  EXPECT_EQ(st.checks_elided, 0u);
  // The fixture's 40% accessibility over 32-record pages produces dead
  // pages; the skip counter must see them.
  EXPECT_GT(st.pages_skipped, 0u);
}

}  // namespace
}  // namespace secxml
