// Malformed DOL transition lists fail closed. A page's transition list is
// decoded once per pin and then binary-searched, so an unsorted list would
// otherwise yield a plausible wrong code; PageCodes::Decode rejects every
// list that breaks the write-side invariant (slots strictly ascending within
// (0, num_records)). For each kind of damage — two transitions swapped, a
// transition at slot 0, a slot at or past num_records — every reader that
// resolves a code from the page returns kCorruption and never a code: both
// scan cursors, SecureStore::Accessible, the hidden-interval sweep, both
// matchers and a whole query, and no failed scan leaves a page pinned.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "exec/multi_cursor.h"
#include "exec/secure_cursor.h"
#include "query/batch_matcher.h"
#include "query/evaluator.h"
#include "query/matcher.h"
#include "query/xpath_parser.h"
#include "storage/paged_file.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr size_t kNumSubjects = 4;

enum class Damage { kSwapped, kSlotZero, kPastEnd };

struct Fixture {
  Document doc;
  DolLabeling labeling;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
  size_t ordinal = 0;    // the damaged page
  NodeId probe = 0;      // last node of the damaged page (slot > 0)
  SubjectId sweeper = 0;  // a subject whose sweep must read the page
};

/// True when `n` and all its ancestors are accessible to `s` (the node is
/// outside every hidden interval of s).
bool Visible(const Fixture& f, SubjectId s, NodeId n) {
  for (NodeId a = n;; a = f.doc.Parent(a)) {
    if (!f.labeling.Accessible(s, a)) return false;
    if (a == 0) return true;
  }
}

void BuildDamaged(Damage damage, Fixture* f) {
  XMarkOptions xopts;
  xopts.seed = 23;
  xopts.target_nodes = 1500;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  SyntheticAclOptions aopts;
  aopts.seed = 123;
  aopts.accessibility_ratio = 0.6;
  aopts.force_root_accessible = true;
  IntervalAccessMap map = GenerateSyntheticAclMap(f->doc, kNumSubjects, aopts);
  f->labeling = DolLabeling::BuildFromEvents(map.num_nodes(), map.InitialAcl(),
                                             map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;
  ASSERT_TRUE(
      SecureStore::Build(f->doc, f->labeling, &f->file, sopts, &f->store)
          .ok());
  NokStore* nok = f->store->nok();
  ASSERT_TRUE(nok->buffer_pool()->FlushAll().ok());

  // The first page with at least two transitions whose last node some
  // subject can see (so that subject's hidden-interval sweep reads it).
  bool found = false;
  for (size_t p = 0; p < nok->num_pages() && !found; ++p) {
    const NokStore::PageInfo& info = nok->page_infos()[p];
    auto ts = nok->PageTransitions(p);
    ASSERT_TRUE(ts.ok());
    if (ts->size() < 2) continue;
    NodeId last = info.first_node + info.num_records - 1;
    for (SubjectId s = 0; s < kNumSubjects && !found; ++s) {
      if (Visible(*f, s, last)) {
        f->ordinal = p;
        f->probe = last;
        f->sweeper = s;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  const NokStore::PageInfo info = nok->page_infos()[f->ordinal];
  Page page;
  ASSERT_TRUE(f->file.ReadPage(info.page_id, &page).ok());
  NokPageHeader header = page.ReadAt<NokPageHeader>(0);
  DolTransition t0 = page.ReadAt<DolTransition>(TransitionOffset(0));
  DolTransition t1 = page.ReadAt<DolTransition>(TransitionOffset(1));
  switch (damage) {
    case Damage::kSwapped:
      page.WriteAt(TransitionOffset(0), t1);
      page.WriteAt(TransitionOffset(1), t0);
      break;
    case Damage::kSlotZero:
      t0.slot = 0;
      page.WriteAt(TransitionOffset(0), t0);
      break;
    case Damage::kPastEnd: {
      uint32_t last = header.num_transitions - 1u;
      DolTransition t = page.ReadAt<DolTransition>(TransitionOffset(last));
      t.slot = header.num_records;
      page.WriteAt(TransitionOffset(last), t);
      break;
    }
  }
  ASSERT_TRUE(f->file.WritePage(info.page_id, page).ok());
  ASSERT_TRUE(nok->buffer_pool()->EvictAll().ok());
}

class TransitionFaultTest : public ::testing::TestWithParam<Damage> {};

TEST_P(TransitionFaultTest, EveryDecoderFailsClosed) {
  Fixture f;
  BuildDamaged(GetParam(), &f);
  if (HasFatalFailure()) return;
  SecureStore* store = f.store.get();
  NokStore* nok = store->nok();
  const NodeId first = nok->page_infos()[f.ordinal].first_node;

  for (SubjectId s = 0; s < kNumSubjects; ++s) {
    // The per-subject cursor, on the page's first and last node: the list
    // is validated before any code on the page is resolved.
    for (bool page_skip : {true, false}) {
      SecureCursor cursor(store, {/*secure=*/true, s, page_skip});
      ASSERT_TRUE(cursor.Attach().ok());
      ScopedScan<SecureCursor> scan(&cursor);
      for (NodeId n : {first, f.probe}) {
        NokRecord rec{};
        bool accessible = false;
        auto got = cursor.FetchCandidate(n, &rec, &accessible);
        EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
            << "subject " << s << " node " << n;
      }
    }
    // The point-probe oracle.
    EXPECT_EQ(store->Accessible(s, f.probe).status().code(),
              StatusCode::kCorruption)
        << "subject " << s;
  }

  // The batch cursor, every subject in one mask.
  std::vector<SubjectId> reps;
  for (SubjectId s = 0; s < kNumSubjects; ++s) reps.push_back(s);
  MultiSubjectCursor batch(store, reps, {});
  ASSERT_TRUE(batch.Attach().ok());
  {
    ScopedScan<MultiSubjectCursor> scan(&batch);
    NokRecord rec{};
    ClassMask access;
    auto got = batch.FetchCandidate(f.probe, batch.FullMask(), &rec, &access);
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  }

  // The hidden-interval sweep of a subject that can see into the page.
  EXPECT_EQ(store->HiddenSubtreeIntervals(f.sweeper).status().code(),
            StatusCode::kCorruption);

  // Both matchers fail the same way, and the failed scan leaves nothing
  // pinned even while the matcher (and its cursor, which held the page
  // when the decode failed) is still alive.
  PatternTree all;
  ASSERT_TRUE(ParseXPath("//*", &all).ok());
  PreparedQuery pq;
  ASSERT_TRUE(PrepareQuery(all, &pq).ok());
  {
    SecureStore::SnapshotPin pin(store);
    NokMatcher::Options mo;
    mo.secure = true;
    mo.subject = f.sweeper;
    NokMatcher matcher(store, mo);
    std::vector<FragmentMatch> out;
    EXPECT_EQ(matcher
                  .MatchFragment(pq.query.fragments[0], pq.designated[0],
                                 &out)
                  .code(),
              StatusCode::kCorruption);
    EXPECT_EQ(nok->buffer_pool()->num_pinned(), 0u);
    MultiSubjectMatcher batch_matcher(store, reps, {});
    std::vector<BatchFragmentMatch> batch_out;
    EXPECT_EQ(batch_matcher
                  .MatchFragment(pq.query.fragments[0], pq.designated[0],
                                 &batch_out)
                  .code(),
              StatusCode::kCorruption);
    EXPECT_EQ(nok->buffer_pool()->num_pinned(), 0u);
  }

  // So does a whole query through the page.
  QueryEvaluator evaluator(store);
  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    EvalOptions opts;
    opts.semantics = sem;
    opts.subject = f.sweeper;
    auto result = evaluator.EvaluateXPath("//*", opts);
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(nok->buffer_pool()->num_pinned(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Damages, TransitionFaultTest,
                         ::testing::Values(Damage::kSwapped,
                                           Damage::kSlotZero,
                                           Damage::kPastEnd),
                         [](const ::testing::TestParamInfo<Damage>& info) {
                           switch (info.param) {
                             case Damage::kSwapped:
                               return "Swapped";
                             case Damage::kSlotZero:
                               return "SlotZero";
                             case Damage::kPastEnd:
                               return "PastEnd";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace secxml
