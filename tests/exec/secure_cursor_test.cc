// Exercises the execution layer's scan cursor (src/exec/multi_cursor.h)
// directly against the primitives it unified, at width 1 (a single
// subject: one-class column access) and at a multi-class width (the
// transposed-column mask table):
//  - FetchCandidate agrees with SecureStore::Accessible on every node, page
//    skip on or off;
//  - the cursor's page dead masks and the header-direct
//    SecureStore::PageWholly* tests agree on every page of a seeded store
//    for every subject, and match per-node ground truth (the
//    single-classification regression — both run through ClassifyPage);
//  - Attach rejects unknown subjects, and either access table denies codes
//    past it;
//  - ChildWalk yields exactly the children a manual FollowingSibling walk
//    yields, with per-child accessibility matching the store, and the
//    unchecked walk (AccessSemantics::kNone) decodes no code;
//  - LabelStreamCursor agrees with DolLabeling::Accessible in monotone
//    sweeps, including forward gaps (a stream filter skipping suppressed
//    subtrees never checks the nodes inside them);
//  - ExecStats invariants: access_only_fetches is structurally zero and
//    every scanned record is ACCESS-checked.

#include "exec/multi_cursor.h"

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

/// Every subject, one class each: bit k of a multi-class cursor's masks is
/// subject k.
std::vector<SubjectId> AllSubjects() {
  std::vector<SubjectId> reps;
  for (SubjectId s = 0; s < kNumSubjects; ++s) reps.push_back(s);
  return reps;
}

MultiSubjectCursor::Options CursorOptions(bool page_skip) {
  MultiSubjectCursor::Options o;
  o.page_skip = page_skip;
  return o;
}

TEST(SecureCursorTest, FetchCandidateAgreesWithStoreAccessible) {
  Fixture f;
  BuildFixture(&f);
  for (bool page_skip : {true, false}) {
    // Width 1: each subject alone.
    for (SubjectId s = 0; s < kNumSubjects; ++s) {
      MultiSubjectCursor cursor(f.store.get(), {s}, CursorOptions(page_skip));
      ASSERT_TRUE(cursor.Attach().ok());
      cursor.BeginScan();
      for (NodeId n = 0; n < f.store->num_nodes(); ++n) {
        NokRecord rec{};
        ClassMask access;
        auto fetched =
            cursor.FetchCandidate(n, cursor.FullMask(), &rec, &access);
        ASSERT_TRUE(fetched.ok()) << fetched.status();
        auto want = f.store->Accessible(s, n);
        ASSERT_TRUE(want.ok()) << want.status();
        if (!*fetched) {
          // Skipped without loading: only allowed when the whole page is
          // provably dead, which implies the node is inaccessible.
          EXPECT_TRUE(page_skip);
          EXPECT_FALSE(*want) << "node " << n << " subject " << s;
        } else {
          EXPECT_EQ(access.Test(0), *want) << "node " << n << " subject " << s;
          EXPECT_TRUE(cursor.FullMask().Covers(access));
          auto direct = f.store->nok()->Record(n);
          ASSERT_TRUE(direct.ok());
          EXPECT_EQ(rec.tag, direct->tag);
          EXPECT_EQ(rec.depth, direct->depth);
          EXPECT_EQ(rec.subtree_size, direct->subtree_size);
        }
      }
      cursor.EndScan();
      EXPECT_EQ(cursor.stats().access_only_fetches, 0u);
    }

    // Every subject in one mask.
    MultiSubjectCursor batch(f.store.get(), AllSubjects(),
                             CursorOptions(page_skip));
    ASSERT_TRUE(batch.Attach().ok());
    batch.BeginScan();
    for (NodeId n = 0; n < f.store->num_nodes(); ++n) {
      NokRecord rec{};
      ClassMask access;
      auto fetched = batch.FetchCandidate(n, batch.FullMask(), &rec, &access);
      ASSERT_TRUE(fetched.ok()) << fetched.status();
      if (!*fetched) {
        EXPECT_TRUE(page_skip);
      }
      for (SubjectId s = 0; s < kNumSubjects; ++s) {
        EXPECT_EQ(*fetched && access.Test(s), *f.store->Accessible(s, n))
            << "node " << n << " subject " << s;
      }
    }
    batch.EndScan();
    EXPECT_EQ(batch.stats().access_only_fetches, 0u);
  }
}

// The single-classification regression: the cursor's page dead masks (the
// access table's bits for first_code) and the header-direct SecureStore
// probes (a codebook probe for first_code) classify every page of a seeded
// document identically for every subject, and both are sound against the
// embedded per-node codes.
TEST(SecureCursorTest, PageVerdictsAgreeWithHeaderDirectProbes) {
  Fixture f;
  BuildFixture(&f);
  MultiSubjectCursor batch(f.store.get(), AllSubjects(), CursorOptions(true));
  ASSERT_TRUE(batch.Attach().ok());
  size_t dead_pages = 0;
  for (SubjectId s = 0; s < kNumSubjects; ++s) {
    MultiSubjectCursor cursor(f.store.get(), {s}, CursorOptions(true));
    ASSERT_TRUE(cursor.Attach().ok());
    for (size_t p = 0; p < f.store->nok()->num_pages(); ++p) {
      const bool dead = f.store->PageWhollyInaccessible(p, s);
      EXPECT_EQ(cursor.PageWhollyDeadFor(p, cursor.FullMask()), dead)
          << "page " << p << " subject " << s;
      EXPECT_EQ(batch.PageDeadMask(p).Test(s), dead)
          << "batch, page " << p << " subject " << s;
      EXPECT_EQ(batch.PageWhollyDeadFor(p, ClassMask::Bit(s)), dead)
          << "batch, page " << p << " subject " << s;
      if (dead) ++dead_pages;
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
      if (dead) EXPECT_TRUE(all_dead);
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
  const SubjectId unknown = static_cast<SubjectId>(kNumSubjects);
  MultiSubjectCursor one(f.store.get(), {unknown}, CursorOptions(true));
  Status st = one.Attach();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  MultiSubjectCursor several(f.store.get(), {0, unknown}, CursorOptions(true));
  st = several.Attach();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  // An unchecked scan reads no access table, so no subject is consulted.
  MultiSubjectCursor::Options unchecked;
  unchecked.secure = false;
  MultiSubjectCursor none(f.store.get(), {unknown}, unchecked);
  EXPECT_TRUE(none.Attach().ok());
}

// Out-of-range codes (corrupt page bytes, or entries a later commit
// appended past the snapshot) deny every class instead of reading past the
// access table: the one class's column, and the transposed-column table.
TEST(SecureCursorTest, OneClassColumnDeniesCodesPastTheColumn) {
  Fixture f;
  BuildFixture(&f);
  const uint32_t entries = static_cast<uint32_t>(f.store->codebook().size());
  for (SubjectId s = 0; s < kNumSubjects; ++s) {
    MultiSubjectCursor cursor(f.store.get(), {s}, CursorOptions(true));
    ASSERT_TRUE(cursor.Attach().ok());
    // Some in-range code is accessible to the subject, so the denials
    // below are not an empty column.
    bool any_granted = false;
    for (uint32_t code = 0; code < entries; ++code) {
      EXPECT_EQ(cursor.AccessMask(code).Test(0),
                f.store->codebook().Accessible(code, s))
          << "code " << code << " subject " << s;
      any_granted |= cursor.AccessMask(code).any();
    }
    EXPECT_TRUE(any_granted) << "subject " << s;
    EXPECT_TRUE(cursor.AccessMask(entries).none());
    EXPECT_TRUE(cursor.AccessMask(0xFFFFFFFFu).none());
  }
  MultiSubjectCursor batch(f.store.get(), AllSubjects(), CursorOptions(true));
  ASSERT_TRUE(batch.Attach().ok());
  EXPECT_TRUE(batch.AccessMask(entries).none());
  EXPECT_TRUE(batch.AccessMask(0xFFFFFFFFu).none());
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

    // Unchecked walk (kNone): every child, in order, all accessible, and
    // no DOL code decoded.
    {
      MultiSubjectCursor::Options unchecked;
      unchecked.secure = false;
      MultiSubjectCursor cursor(f.store.get(), {0}, unchecked);
      ASSERT_TRUE(cursor.Attach().ok());
      cursor.BeginScan();
      MultiSubjectCursor::ChildWalk walk(&cursor, parent, prec,
                                         cursor.FullMask());
      std::vector<NodeId> got;
      NodeId u = kInvalidNode;
      NokRecord rec{};
      ClassMask acc;
      for (;;) {
        auto more = walk.Next(&u, &rec, &acc);
        ASSERT_TRUE(more.ok());
        if (!*more) break;
        got.push_back(u);
        EXPECT_EQ(acc, cursor.FullMask());
      }
      cursor.EndScan();
      EXPECT_EQ(got, want);
      EXPECT_EQ(cursor.stats().codes_checked, 0u);
      EXPECT_EQ(cursor.stats().pages_skipped, 0u);
      EXPECT_EQ(cursor.stats().nodes_scanned, want.size());
    }

    // Secure walk without page skip: same children, accessibility flags
    // matching the store. With page skip: a subsequence, and everything
    // dropped lies in a page wholly dead for the walk's live classes
    // (hence inaccessible to each of them). Width 1 per subject, then
    // every subject in one mask.
    for (bool page_skip : {false, true}) {
      std::vector<std::vector<SubjectId>> batches;
      for (SubjectId s = 0; s < kNumSubjects; ++s) batches.push_back({s});
      batches.push_back(AllSubjects());
      for (const std::vector<SubjectId>& reps : batches) {
        MultiSubjectCursor cursor(f.store.get(), reps,
                                  CursorOptions(page_skip));
        ASSERT_TRUE(cursor.Attach().ok());
        cursor.BeginScan();
        MultiSubjectCursor::ChildWalk walk(&cursor, parent, prec,
                                           cursor.FullMask());
        std::vector<NodeId> got;
        NodeId u = kInvalidNode;
        NokRecord rec{};
        ClassMask acc;
        size_t wi = 0;
        auto expect_dead_for_all = [&](NodeId skipped) {
          EXPECT_TRUE(page_skip);
          for (SubjectId s : reps) {
            EXPECT_FALSE(*f.store->Accessible(s, skipped))
                << "skipped child " << skipped << " subject " << s;
          }
        };
        for (;;) {
          auto more = walk.Next(&u, &rec, &acc);
          ASSERT_TRUE(more.ok());
          if (!*more) break;
          got.push_back(u);
          for (size_t k = 0; k < reps.size(); ++k) {
            EXPECT_EQ(acc.Test(k), *f.store->Accessible(reps[k], u))
                << "child " << u << " subject " << reps[k];
          }
          // Children skipped over (page-skip mode) must be inaccessible.
          while (wi < want.size() && want[wi] != u) {
            expect_dead_for_all(want[wi]);
            ++wi;
          }
          ASSERT_LT(wi, want.size());
          ++wi;
        }
        while (wi < want.size()) {
          expect_dead_for_all(want[wi]);
          ++wi;
        }
        cursor.EndScan();
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
  for (const std::vector<SubjectId>& reps :
       {std::vector<SubjectId>{0}, AllSubjects()}) {
    MultiSubjectCursor cursor(f.store.get(), reps, CursorOptions(true));
    ASSERT_TRUE(cursor.Attach().ok());
    cursor.BeginScan();
    for (NodeId n = 0; n < f.store->num_nodes(); ++n) {
      NokRecord rec{};
      ClassMask acc;
      ASSERT_TRUE(cursor.FetchCandidate(n, cursor.FullMask(), &rec, &acc).ok());
    }
    cursor.EndScan();
    const ExecStats& st = cursor.stats();
    // The zero-extra-I/O property as a structural invariant.
    EXPECT_EQ(st.access_only_fetches, 0u);
    // Every materialized record was ACCESS-checked; nothing is elided.
    EXPECT_EQ(st.nodes_scanned, st.codes_checked);
    EXPECT_EQ(st.checks_elided, 0u);
    // The fixture's 40% accessibility over 32-record pages produces pages
    // dead for subject 0; the skip counter must see them.
    if (reps.size() == 1) {
      EXPECT_GT(st.pages_skipped, 0u);
    }
  }
}

}  // namespace
}  // namespace secxml
