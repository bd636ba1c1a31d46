// Crash-recovery chaos suite (ctest -L fault): the store is killed at every
// WAL record boundary of a mixed update sequence and recovered from exactly
// the bytes that reached the device — whatever the buffer pool still held
// is gone. Contracts:
//
//  * Recovery at boundary k reproduces the never-crashed store's state
//    after update k exactly: the extracted labeling and the codebook are
//    byte-identical, and every query answers the same under both semantics.
//  * A torn WAL append or a dying sync fails the *update* (fail-closed,
//    store unchanged), and a crash right after recovers the pre-update
//    state — no query ever observes a half-applied update.
//  * A checkpoint that dies mid-Persist leaves the previous checkpoint
//    recoverable, and the untruncated log still replays past it.
//  * A recovered store keeps logging at ascending LSNs, and a second crash
//    recovers both generations of updates.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dol_labeling.h"
#include "core/policy.h"
#include "core/secure_store.h"
#include "query/evaluator.h"
#include "storage/fault_file.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "xml/xml_parser.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr size_t kSubjects = 4;

NokStoreOptions StoreOptions() {
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;
  sopts.buffer_pool_pages = 24;  // tiny pool: evictions scatter dirty pages
  return sopts;
}

struct WalFixture {
  Document doc;
  MemPagedFile data;
  MemPagedFile wal;
  std::unique_ptr<SecureStore> store;
};

void BuildWalFixture(uint64_t seed, uint32_t nodes, WalFixture* f) {
  XMarkOptions xopts;
  xopts.seed = seed + 300;
  xopts.target_nodes = nodes;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  NodeId n = static_cast<NodeId>(f->doc.NumNodes());
  Rng rng(seed * 13 + 5);
  IntervalAccessMap map(n, kSubjects);
  for (SubjectId s = 0; s < kSubjects; ++s) {
    std::vector<AclSeed> seeds = {{0, rng.Bernoulli(0.5)}};
    for (int i = 0; i < 20; ++i) {
      seeds.push_back(
          {static_cast<NodeId>(rng.Uniform(n)), rng.Bernoulli(0.5)});
    }
    map.SetSubjectIntervals(s, PropagateMostSpecificOverride(f->doc, seeds));
  }
  DolLabeling labeling =
      DolLabeling::BuildFromEvents(n, map.InitialAcl(), map.CollectEvents());
  ASSERT_TRUE(SecureStore::BuildWithWal(f->doc, labeling, &f->data, &f->wal,
                                        StoreOptions(), &f->store)
                  .ok());
}

// The crash model: copy exactly the bytes that reached the device. The live
// store keeps running; the copy is what a post-crash open sees (dirty
// buffer-pool pages never written are lost with the process).
void SnapshotFile(PagedFile* src, MemPagedFile* dst) {
  Page page;
  for (PageId id = 0; id < src->NumPages(); ++id) {
    ASSERT_TRUE(src->ReadPage(id, &page).ok());
    auto alloc = dst->AllocatePage();
    ASSERT_TRUE(alloc.ok());
    ASSERT_TRUE(dst->WritePage(*alloc, page).ok());
  }
}

// Canonical logical fingerprint of a store's secured content: the
// re-extracted DOL labeling (transitions + codebook) serialized. Two stores
// with equal fingerprints answer every access check identically.
std::string Fingerprint(SecureStore* store) {
  auto labeling = store->ExtractLabeling();
  EXPECT_TRUE(labeling.ok()) << labeling.status();
  if (!labeling.ok()) return {};
  std::vector<uint8_t> bytes = labeling->Serialize();
  std::vector<uint8_t> cb = store->codebook().Serialize();
  std::string fp(bytes.begin(), bytes.end());
  fp.append(cb.begin(), cb.end());
  return fp;
}

std::vector<std::vector<NodeId>> AnswerSet(
    SecureStore* store, const std::vector<PatternTree>& queries) {
  std::vector<std::vector<NodeId>> out;
  QueryEvaluator eval(store);
  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    for (const PatternTree& q : queries) {
      for (SubjectId s = 0; s < kSubjects; ++s) {
        EvalOptions opts;
        opts.semantics = sem;
        opts.subject = s;
        auto r = eval.Evaluate(q, opts);
        EXPECT_TRUE(r.ok()) << r.status();
        out.push_back(r.ok() ? r->answers : std::vector<NodeId>{});
      }
    }
  }
  return out;
}

// One scripted update; kinds cycle so the sequence covers ACL range writes,
// structural surgery, subject management, compaction, and a mid-sequence
// checkpoint.
Status ApplyScriptedUpdate(WalFixture* f, int i, Rng* rng) {
  const NodeId n = f->store->num_nodes();
  switch (i % 7) {
    case 0:
    case 3: {
      NodeId begin = static_cast<NodeId>(rng->Uniform(n - 1));
      NodeId end =
          begin + 1 + static_cast<NodeId>(rng->Uniform(120)) < n
              ? begin + 1 + static_cast<NodeId>(rng->Uniform(120))
              : n;
      return f->store->SetRangeAccess(
          begin, end, static_cast<SubjectId>(rng->Uniform(kSubjects)),
          rng->Bernoulli(0.5));
    }
    case 1: {
      NodeId root = 1 + static_cast<NodeId>(rng->Uniform(n - 1));
      return f->store->DeleteSubtree(root);
    }
    case 2: {
      Document frag;
      SECXML_RETURN_NOT_OK(
          ParseXml("<wal_frag><x>1</x><y>2</y></wal_frag>", &frag));
      DenseAccessMap fmap(static_cast<NodeId>(frag.NumNodes()),
                          f->store->codebook().num_subjects());
      for (SubjectId s = 0; s < f->store->codebook().num_subjects(); ++s) {
        fmap.SetSubtree(frag, s, 0, s % 2 == 0);
      }
      auto pos = f->store->InsertSubtree(0, kInvalidNode, frag,
                                         DolLabeling::Build(fmap));
      return pos.ok() ? Status::OK() : pos.status();
    }
    case 4: {
      auto added = f->store->AddSubjectLike(
          static_cast<SubjectId>(rng->Uniform(kSubjects)));
      if (!added.ok()) return added.status();
      return f->store->RemoveSubject(*added);
    }
    case 5:
      return f->store->CompactCodebook();
    default:
      return f->store->SetSubtreeAccess(
          1 + static_cast<NodeId>(rng->Uniform(n - 1)),
          static_cast<SubjectId>(rng->Uniform(kSubjects)),
          rng->Bernoulli(0.5));
  }
}

class CrashRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashRecoveryTest, CrashAtEveryWalRecordBoundary) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  WalFixture f;
  BuildWalFixture(seed, 1600, &f);
  Rng rng(seed * 41 + 3);

  std::vector<PatternTree> queries;
  for (int i = 0; i < 2; ++i) {
    QueryGenOptions qopts;
    qopts.seed = seed * 700 + static_cast<uint64_t>(i);
    qopts.max_nodes = 3;
    queries.push_back(GenerateTwigQuery(f.doc, qopts));
  }

  struct Boundary {
    std::unique_ptr<MemPagedFile> data;
    std::unique_ptr<MemPagedFile> wal;
    std::string fingerprint;
    std::vector<std::vector<NodeId>> answers;
  };
  constexpr int kUpdates = 10;
  std::vector<Boundary> boundaries;

  auto capture = [&] {
    Boundary b;
    b.data = std::make_unique<MemPagedFile>();
    b.wal = std::make_unique<MemPagedFile>();
    SnapshotFile(&f.data, b.data.get());
    SnapshotFile(&f.wal, b.wal.get());
    b.fingerprint = Fingerprint(f.store.get());
    b.answers = AnswerSet(f.store.get(), queries);
    boundaries.push_back(std::move(b));
  };

  capture();  // boundary 0: the initial checkpoint, no updates
  for (int i = 0; i < kUpdates; ++i) {
    ASSERT_TRUE(ApplyScriptedUpdate(&f, i, &rng).ok()) << "update " << i;
    if (i == kUpdates / 2) {
      // Mid-sequence checkpoint: later boundaries recover from it, earlier
      // ones from the initial checkpoint with a longer replay.
      ASSERT_TRUE(f.store->Checkpoint().ok());
    }
    capture();
  }

  for (size_t k = 0; k < boundaries.size(); ++k) {
    std::unique_ptr<SecureStore> recovered;
    SecureStore::RecoveryStats rs;
    Status st =
        SecureStore::OpenWithWal(boundaries[k].data.get(),
                                 boundaries[k].wal.get(), StoreOptions(),
                                 &recovered, &rs);
    ASSERT_TRUE(st.ok()) << "crash point " << k << ": " << st;
    EXPECT_EQ(rs.records_replayed, rs.records_in_log)
        << "crash point " << k << " (log had exactly the post-checkpoint "
        << "records)";
    EXPECT_EQ(recovered->update_stats().updates_replayed, rs.records_replayed);
    EXPECT_EQ(Fingerprint(recovered.get()), boundaries[k].fingerprint)
        << "crash point " << k << ": recovered state differs from the "
        << "never-crashed baseline";
    EXPECT_EQ(AnswerSet(recovered.get(), queries), boundaries[k].answers)
        << "crash point " << k;
    EXPECT_EQ(recovered->epochs()->active_pins(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryTest, ::testing::Range(1, 5));

TEST(CrashRecoveryTest, RecoveredStoreAcceptsNewUpdates) {
  // LSNs keep ascending across a crash: an update to the recovered store
  // may not collide with a replayed LSN, and a second crash recovers both
  // generations.
  WalFixture f;
  BuildWalFixture(54, 1600, &f);
  Rng rng(54);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ApplyScriptedUpdate(&f, i, &rng).ok()) << "update " << i;
  }
  const uint64_t lsn1 = f.store->applied_lsn();
  MemPagedFile data1, wal1;
  SnapshotFile(&f.data, &data1);
  SnapshotFile(&f.wal, &wal1);
  std::unique_ptr<SecureStore> recovered;
  ASSERT_TRUE(
      SecureStore::OpenWithWal(&data1, &wal1, StoreOptions(), &recovered)
          .ok());
  ASSERT_EQ(recovered->applied_lsn(), lsn1);

  // The same update on the never-crashed store and the recovered one.
  const NodeId target = recovered->num_nodes() / 3;
  ASSERT_TRUE(f.store->SetSubtreeAccess(target, 0, false).ok());
  ASSERT_TRUE(recovered->SetSubtreeAccess(target, 0, false).ok());
  EXPECT_GT(recovered->applied_lsn(), lsn1);
  EXPECT_EQ(recovered->applied_lsn(), f.store->applied_lsn());
  const std::string fp = Fingerprint(f.store.get());
  EXPECT_EQ(Fingerprint(recovered.get()), fp);

  MemPagedFile data2, wal2;
  SnapshotFile(&data1, &data2);
  SnapshotFile(&wal1, &wal2);
  std::unique_ptr<SecureStore> again;
  SecureStore::RecoveryStats rs;
  ASSERT_TRUE(
      SecureStore::OpenWithWal(&data2, &wal2, StoreOptions(), &again, &rs)
          .ok());
  EXPECT_EQ(rs.records_replayed, rs.records_in_log);
  EXPECT_EQ(again->applied_lsn(), recovered->applied_lsn());
  EXPECT_EQ(Fingerprint(again.get()), fp);
}

TEST(CrashRecoveryTest, TornWalAppendFailsClosedAndRecoversPreUpdateState) {
  WalFixture f;
  Document doc;
  {
    // Rebuild through a fault layer on the WAL file so appends can tear.
    XMarkOptions xopts;
    xopts.seed = 901;
    xopts.target_nodes = 1200;
    ASSERT_TRUE(GenerateXMark(xopts, &doc).ok());
  }
  NodeId n = static_cast<NodeId>(doc.NumNodes());
  Rng rng(55);
  IntervalAccessMap map(n, kSubjects);
  for (SubjectId s = 0; s < kSubjects; ++s) {
    std::vector<AclSeed> seeds = {{0, rng.Bernoulli(0.5)}};
    for (int i = 0; i < 15; ++i) {
      seeds.push_back(
          {static_cast<NodeId>(rng.Uniform(n)), rng.Bernoulli(0.5)});
    }
    map.SetSubjectIntervals(s, PropagateMostSpecificOverride(doc, seeds));
  }
  DolLabeling labeling =
      DolLabeling::BuildFromEvents(n, map.InitialAcl(), map.CollectEvents());
  MemPagedFile data_base, wal_base;
  FaultInjectingPagedFile wal_fault(&wal_base);
  wal_fault.set_enabled(false);
  std::unique_ptr<SecureStore> store;
  ASSERT_TRUE(SecureStore::BuildWithWal(doc, labeling, &data_base, &wal_fault,
                                        StoreOptions(), &store)
                  .ok());
  ASSERT_TRUE(store->SetSubtreeAccess(1, 0, false).ok());  // one clean update
  std::string fp_before = Fingerprint(store.get());
  uint64_t lsn_before = store->applied_lsn();

  // The next update's WAL append tears and the page stays bad (so the
  // best-effort invalidation cannot land either) — the harshest torn-write
  // outcome. The update must fail without touching committed state.
  FaultOptions chaos;
  chaos.torn_writes = true;
  chaos.persistent = true;
  chaos.write_fault_prob = 1.0;
  wal_fault.SetOptions(chaos);
  wal_fault.set_enabled(true);
  Status st = store->SetSubtreeAccess(2, 1, false);
  EXPECT_FALSE(st.ok());
  wal_fault.set_enabled(false);
  wal_fault.ClearPageFaults();

  // Fail-closed live: nothing changed, and the store keeps working.
  EXPECT_EQ(store->applied_lsn(), lsn_before);
  EXPECT_EQ(Fingerprint(store.get()), fp_before);
  ASSERT_TRUE(store->SetSubtreeAccess(3, 1, true).ok());
  std::string fp_after = Fingerprint(store.get());

  // Crash now: recovery drops the torn record, replays the clean ones, and
  // lands exactly on the live store's state.
  MemPagedFile data_img, wal_img;
  SnapshotFile(&data_base, &data_img);
  SnapshotFile(&wal_base, &wal_img);
  std::unique_ptr<SecureStore> recovered;
  SecureStore::RecoveryStats rs;
  ASSERT_TRUE(SecureStore::OpenWithWal(&data_img, &wal_img, StoreOptions(),
                                       &recovered, &rs)
                  .ok());
  // The torn record never replays; whether its residue still reads as a
  // torn tail depends on where the tear landed (the follow-up append may
  // have overwritten it) — wal_test pins the detection itself.
  EXPECT_EQ(Fingerprint(recovered.get()), fp_after);
}

TEST(CrashRecoveryTest, DyingWalSyncAbortsTheUpdate) {
  MemPagedFile data_raw, wal_raw;
  FaultInjectingPagedFile wal_fault(&wal_raw);
  wal_fault.set_enabled(false);
  std::unique_ptr<SecureStore> store;
  {
    XMarkOptions xopts;
    xopts.seed = 331;
    xopts.target_nodes = 1000;
    Document doc;
    ASSERT_TRUE(GenerateXMark(xopts, &doc).ok());
    NodeId n = static_cast<NodeId>(doc.NumNodes());
    DenseAccessMap map(n, 2);
    for (SubjectId s = 0; s < 2; ++s) map.SetSubtree(doc, s, 0, true);
    ASSERT_TRUE(SecureStore::BuildWithWal(doc, DolLabeling::Build(map),
                                          &data_raw, &wal_fault,
                                          StoreOptions(), &store)
                    .ok());
  }
  std::string fp = Fingerprint(store.get());

  wal_fault.set_enabled(true);
  wal_fault.FailNext(FaultOp::kSync, 1);
  Status st = store->SetSubtreeAccess(1, 0, false);
  EXPECT_FALSE(st.ok());
  wal_fault.set_enabled(false);

  // Unchanged live; unchanged after a crash.
  EXPECT_EQ(Fingerprint(store.get()), fp);
  MemPagedFile data_img, wal_img;
  SnapshotFile(&data_raw, &data_img);
  SnapshotFile(&wal_raw, &wal_img);
  std::unique_ptr<SecureStore> recovered;
  ASSERT_TRUE(SecureStore::OpenWithWal(&data_img, &wal_img, StoreOptions(),
                                       &recovered, nullptr)
                  .ok());
  EXPECT_EQ(Fingerprint(recovered.get()), fp);

  // The store retries successfully once the device heals.
  ASSERT_TRUE(store->SetSubtreeAccess(1, 0, false).ok());
}

TEST(CrashRecoveryTest, CheckpointDyingMidPersistKeepsPriorCheckpoint) {
  MemPagedFile data_raw, wal_raw;
  FaultInjectingPagedFile data_fault(&data_raw);
  data_fault.set_enabled(false);
  std::unique_ptr<SecureStore> store;
  Document doc;
  {
    XMarkOptions xopts;
    xopts.seed = 77;
    xopts.target_nodes = 1200;
    ASSERT_TRUE(GenerateXMark(xopts, &doc).ok());
    NodeId n = static_cast<NodeId>(doc.NumNodes());
    DenseAccessMap map(n, 2);
    map.SetSubtree(doc, 0, 0, true);
    map.SetSubtree(doc, 1, 0, false);
    ASSERT_TRUE(SecureStore::BuildWithWal(doc, DolLabeling::Build(map),
                                          &data_fault, &wal_raw,
                                          StoreOptions(), &store)
                    .ok());
  }
  ASSERT_TRUE(store->SetSubtreeAccess(1, 1, true).ok());
  ASSERT_TRUE(store->SetSubtreeAccess(2, 0, false).ok());
  std::string fp = Fingerprint(store.get());

  // Checkpoint dies on its data sync. The WAL must NOT have been truncated
  // (truncation only follows a successful persist).
  data_fault.set_enabled(true);
  data_fault.FailNext(FaultOp::kSync, 1);
  EXPECT_FALSE(store->Checkpoint().ok());
  data_fault.set_enabled(false);
  EXPECT_GE(store->wal()->num_records(), 2u);

  // Crash: recovery starts from the *initial* checkpoint and replays both
  // updates — the failed checkpoint lost nothing.
  MemPagedFile data_img, wal_img;
  SnapshotFile(&data_raw, &data_img);
  SnapshotFile(&wal_raw, &wal_img);
  std::unique_ptr<SecureStore> recovered;
  SecureStore::RecoveryStats rs;
  ASSERT_TRUE(SecureStore::OpenWithWal(&data_img, &wal_img, StoreOptions(),
                                       &recovered, &rs)
                  .ok());
  EXPECT_EQ(rs.records_replayed, 2u);
  EXPECT_EQ(Fingerprint(recovered.get()), fp);

  // And a later successful checkpoint truncates the log for good.
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->wal()->num_records(), 0u);
  MemPagedFile data_img2, wal_img2;
  SnapshotFile(&data_raw, &data_img2);
  SnapshotFile(&wal_raw, &wal_img2);
  std::unique_ptr<SecureStore> recovered2;
  SecureStore::RecoveryStats rs2;
  ASSERT_TRUE(SecureStore::OpenWithWal(&data_img2, &wal_img2, StoreOptions(),
                                       &recovered2, &rs2)
                  .ok());
  EXPECT_EQ(rs2.records_replayed, 0u);
  EXPECT_EQ(Fingerprint(recovered2.get()), fp);
}

}  // namespace
}  // namespace secxml
