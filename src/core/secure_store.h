#ifndef SECXML_CORE_SECURE_STORE_H_
#define SECXML_CORE_SECURE_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/result.h"
#include "common/status.h"
#include "core/accessibility_map.h"
#include "core/codebook.h"
#include "core/dol_labeling.h"
#include "core/epoch.h"
#include "exec/exec_stats.h"
#include "nok/nok_store.h"
#include "storage/wal.h"

namespace secxml {

/// A secured XML store: NoK block storage of the document structure with the
/// DOL physically embedded (paper Section 3), plus the in-memory codebook.
/// This is the object the secure query processor runs against.
///
/// Thread safety (DESIGN.md §11): the store is an epoch-versioned snapshot
/// machine. Every committed update publishes a new immutable snapshot
/// (codebook + NokStore state + visibility caches) and advances the epoch;
/// a query takes a SnapshotPin and evaluates entirely against the snapshot
/// that was current when the pin was taken, so one writer may run
/// concurrently with any number of query threads and no query ever observes
/// a half-applied update. Updates themselves (SetNodeAccess,
/// SetSubtreeAccess, SetRangeAccess, DeleteSubtree, InsertSubtree,
/// Add/RemoveSubject, CompactCodebook) are serialized on an internal writer
/// mutex and are atomic: they either commit completely or leave the store
/// unchanged (fail-closed).
///
/// Durability: with an attached write-ahead log (BuildWithWal/OpenWithWal)
/// every update is appended and synced to the log *before* it is published
/// to readers, so a crash at any point either recovers the update completely
/// or not at all. Checkpoint() persists the current snapshot and truncates
/// the log; OpenWithWal() recovers the last checkpoint (scanning backward
/// for the superblock — shadow paging keeps it intact) and replays the
/// log's tail.
class SecureStore {
 public:
  /// WAL record types (logical redo records; replay re-executes the same
  /// update code that originally ran).
  enum WalRecordType : uint32_t {
    kWalSetRangeAccess = 1,
    kWalAddSubject = 2,
    kWalAddSubjectLike = 3,
    kWalRemoveSubject = 4,
    kWalDeleteSubtree = 5,
    kWalInsertSubtree = 6,
    kWalCompactCodebook = 7,
    kWalVacuum = 8,
  };

  /// What OpenWithWal() did to bring the store back.
  struct RecoveryStats {
    uint64_t checkpoint_lsn = 0;    ///< LSN recorded by the last checkpoint
    uint64_t records_in_log = 0;    ///< valid records the WAL scan found
    uint64_t records_replayed = 0;  ///< records with lsn > checkpoint_lsn
    uint64_t torn_tail = 0;         ///< 1 if the WAL dropped a torn tail
  };

  /// One committed update, classified by what it can change. The store's
  /// own visibility caches are maintained from the kind (DESIGN.md §11),
  /// and the same event reaches external epoch-keyed caches (the
  /// cross-request ResultCache — DESIGN.md §14) through AddCommitHook for
  /// every live commit and WAL replay.
  struct CommitEvent {
    enum class Kind : uint8_t {
      /// `subject`'s accessibility changed over document-order range
      /// [begin, end). Every codebook entry the update interned differs
      /// from the one it replaces only in that subject's bit, so no other
      /// subject's per-node accessibility changed: only answers of the
      /// subject's visibility class whose footprint overlaps the range
      /// can be stale.
      kAclPatch,
      /// A subject column was appended. Existing columns' content — and
      /// therefore their fingerprints and every answer keyed on them — is
      /// unchanged; caches need do nothing.
      kSubjectAdded,
      /// Structure changed (insert/delete/vacuum): node ids renumber, so
      /// every cached answer set is suspect. Codebook entries are only
      /// appended (insert), never renumbered.
      kStructural,
      /// Codes or subjects renumbered (remove subject, compact codebook):
      /// column fingerprints themselves shift; flush everything.
      kShapeChange,
    };
    Kind kind = Kind::kShapeChange;
    NodeId begin = 0;  ///< kAclPatch only: affected range, document order
    NodeId end = 0;
    SubjectId subject = 0;  ///< kAclPatch only: the updated subject
    /// kAclPatch only: `subject`'s column fingerprint under the committed
    /// codebook — the cache key half of the one class whose answers can
    /// have changed (filled at commit).
    ColumnFingerprint fingerprint{};
    EpochManager::Epoch epoch = 0;  ///< the epoch this commit published
  };

  /// Registers a commit hook. Hooks fire on every commit *while the
  /// snapshot-publication lock is held*, after the epoch advances and the
  /// internal caches are maintained but before any new SnapshotPin can
  /// observe the new epoch — so a hook that invalidates an external cache
  /// closes the stale window airtight. Hooks must be fast, must not throw,
  /// and must not call back into this store. Hooks are never removed; the
  /// callee must outlive the store.
  void AddCommitHook(std::function<void(const CommitEvent&)> hook);

  /// Content fingerprint of `subject`'s codebook column under the calling
  /// thread's snapshot (see ColumnFingerprint) — the class half of a
  /// cross-request cache key. Served from the epoch-stamped column cache
  /// when current; fails closed to the all-denied column's fingerprint for
  /// an unknown subject, exactly like Codebook::Column.
  ColumnFingerprint SubjectColumnFingerprint(SubjectId subject);

  /// Update-path counters (all monotonically increasing; readable from any
  /// thread while updates run).
  struct UpdateStats {
    uint64_t updates_applied = 0;   ///< committed updates (live, not replay)
    uint64_t updates_replayed = 0;  ///< updates re-executed from the WAL
    uint64_t epochs_advanced = 0;
    /// Always 0: no commit maintains per-subject views any more; kept so
    /// existing readers of UpdateStats still build.
    uint64_t views_patched = 0;
    uint64_t columns_patched = 0;   ///< cached codebook columns extended
    /// ACL patches that appended codebook entries. Every column grows, so
    /// every column fingerprint — every class-keyed cache entry — turns
    /// over; the other ACL patches change no fingerprint (DESIGN.md §14).
    uint64_t acl_patches_appending = 0;
    uint64_t checkpoints = 0;
  };

  /// RAII epoch pin: while alive, every read made *on this thread* against
  /// this store — codebook(), Accessible, page verdicts, SubjectColumn,
  /// HiddenSubtreeIntervals, GroupSubjects, and all NokStore reads — resolves
  /// against the snapshot that was committed when the pin was taken,
  /// regardless of concurrent update commits. Pins nest: an inner pin on the
  /// same store adopts the outer pin's epoch, so helper code can pin
  /// defensively without ever straddling two snapshots. Queries take one pin
  /// for their whole evaluation (QueryEvaluator/BatchEvaluator do this).
  class SnapshotPin {
   public:
    explicit SnapshotPin(SecureStore* store);
    /// Pins `adopt`'s snapshot (epoch, codebook, NokStore state) on the
    /// calling thread, which may differ from the thread that took `adopt`:
    /// every scatter worker of one request adopts the coordinator's pin, so
    /// all of the request's windows read one epoch while a writer commits.
    /// `adopt` must be a pin on `store` and must outlive this one.
    SnapshotPin(SecureStore* store, const SnapshotPin& adopt);
    ~SnapshotPin();
    SnapshotPin(const SnapshotPin&) = delete;
    SnapshotPin& operator=(const SnapshotPin&) = delete;

    EpochManager::Epoch epoch() const { return epoch_; }

   private:
    friend class SecureStore;
    /// Shares `outer`'s snapshot: pins its epoch again and adopts its
    /// codebook and NokStore state.
    void Adopt(const SnapshotPin& outer);

    SecureStore* store_;
    EpochManager::Epoch epoch_ = 0;
    std::shared_ptr<const Codebook> codebook_;
    std::optional<NokStore::ReadPin> nok_pin_;
    SnapshotPin* next_ = nullptr;  ///< previous head of the thread's chain
  };

  /// Builds the physical store from a document and its logical DOL in one
  /// document-order pass (structure and access codes are laid out together,
  /// Section 3.2). The labeling's codebook is copied in.
  static Status Build(const Document& doc, const DolLabeling& labeling,
                      PagedFile* file, const NokStoreOptions& options,
                      std::unique_ptr<SecureStore>* out);

  /// Reopens a store previously saved with Persist() (structure, embedded
  /// codes, and codebook all restored). No write-ahead log is attached.
  static Status Open(PagedFile* file, const NokStoreOptions& options,
                     std::unique_ptr<SecureStore>* out);

  /// Build() plus an attached write-ahead log on `wal_file`, sealed with an
  /// initial checkpoint, so every later update is crash-recoverable.
  static Status BuildWithWal(const Document& doc, const DolLabeling& labeling,
                             PagedFile* data_file, PagedFile* wal_file,
                             const NokStoreOptions& options,
                             std::unique_ptr<SecureStore>* out);

  /// Crash-recovering open: restores the most recent durable checkpoint from
  /// `data_file` (backward superblock scan; shadow paging guarantees the
  /// checkpoint's pages are intact even when later update pages landed after
  /// it), then replays every WAL record past the checkpoint's LSN. Updates
  /// that never reached the log (crash before the append synced) are rolled
  /// back by omission — exactly the fail-closed contract of the update path.
  static Status OpenWithWal(PagedFile* data_file, PagedFile* wal_file,
                            const NokStoreOptions& options,
                            std::unique_ptr<SecureStore>* out,
                            RecoveryStats* recovery = nullptr);

  /// Persists the current snapshot: NoK superblock plus a checkpoint blob
  /// (codebook + the LSN of the last applied update) in the superblock's
  /// user area. Requires no update in flight; queries may continue.
  Status Persist();

  /// Persist() followed by WAL truncation: the log's records are now
  /// redundant with the durable checkpoint. A crash between the two steps is
  /// safe — replay skips records at or below the checkpoint LSN.
  Status Checkpoint();

  SecureStore(const SecureStore&) = delete;
  SecureStore& operator=(const SecureStore&) = delete;
  ~SecureStore();

  NokStore* nok() { return nok_.get(); }

  /// The codebook of the calling thread's snapshot: the pinned epoch's
  /// codebook under a SnapshotPin, the staged working copy on the writer
  /// thread mid-update, else the latest committed one. The reference is
  /// valid for the pin's lifetime (pinned) or until the next commit
  /// (unpinned — the historical single-threaded contract).
  const Codebook& codebook() const;

  NodeId num_nodes() const { return nok_->num_nodes(); }

  /// Accessibility check for one node (Section 3.3). Costs at most one
  /// buffer-pool fetch of the node's own page, and zero I/O when the page's
  /// change bit is clear (answered from the in-memory header table).
  /// Safe for concurrent callers.
  Result<bool> Accessible(SubjectId subject, NodeId node);

  /// True if, judging from the in-memory page header alone, every node in
  /// the page is inaccessible to `subject` — the page-skipping test of
  /// Section 3.3. Never performs I/O; false means "must look inside".
  /// Classified by ClassifyPage, like the cursors' page verdicts.
  bool PageWhollyInaccessible(size_t page_ordinal, SubjectId subject) const {
    return Verdict(page_ordinal, subject) == PageVerdict::kDead;
  }

  /// Likewise, true if the header alone proves every node accessible.
  bool PageWhollyAccessible(size_t page_ordinal, SubjectId subject) const {
    return Verdict(page_ordinal, subject) == PageVerdict::kLive;
  }

  // --- Updates (paper Section 3.4) -------------------------------------
  //
  // Every mutator is one atomic transaction: it stages against private
  // copies (shadow-paged pages, a working codebook), appends one WAL record
  // (when a log is attached), and only then publishes the new snapshot and
  // advances the epoch. Any failure — staging error, WAL append error —
  // aborts the whole update and leaves the committed snapshot untouched.
  // Cached codebook columns are maintained *incrementally* at commit: ACL
  // updates only append codebook entries, so each column is extended by the
  // new entries' bits, and an ACL update drops only the updated subject's
  // hidden intervals. Only subject removal and codebook compaction, which
  // renumber codes or subjects, drop caches for recomputation.

  /// Sets `subject`'s accessibility for a single node. Touches only the
  /// node's page (read + write).
  Status SetNodeAccess(NodeId node, SubjectId subject, bool accessible) {
    return SetRangeAccess(node, node + 1, subject, accessible);
  }

  /// Sets `subject`'s accessibility for the whole subtree rooted at `root`.
  /// Touches the ceil(N/B) consecutive pages covering the subtree.
  Status SetSubtreeAccess(NodeId root, SubjectId subject, bool accessible);

  /// Range form over document-order interval [begin, end).
  Status SetRangeAccess(NodeId begin, NodeId end, SubjectId subject,
                        bool accessible);

  /// Structural deletion (Section 3.4): removes the subtree rooted at
  /// `root` together with its embedded labels; later nodes renumber
  /// implicitly and keep their access codes.
  Status DeleteSubtree(NodeId root);

  /// Structural insertion (Section 3.4): splices `fragment` (whose nodes
  /// already carry access controls via `fragment_labeling`, over the same
  /// subject set) in as a child of `parent` after child `after`
  /// (kInvalidNode = first child). Fragment ACLs are interned into this
  /// store's codebook. Returns the fragment root's new document id.
  Result<NodeId> InsertSubtree(NodeId parent, NodeId after,
                               const Document& fragment,
                               const DolLabeling& fragment_labeling);

  /// Adds a subject with uniform `default_access`; codebook-only (no page
  /// I/O), per Section 3.4. Fails only when the WAL append fails (the
  /// update is then not applied).
  Result<SubjectId> AddSubject(bool default_access);

  /// Adds a subject whose rights mirror an existing subject's; codebook-only.
  /// Fails with InvalidArgument if `like` does not exist.
  Result<SubjectId> AddSubjectLike(SubjectId like);

  /// Removes a subject; codebook-only. Embedded codes stay valid; duplicate
  /// codebook entries are tolerated and cleaned lazily.
  Status RemoveSubject(SubjectId subject);

  /// The lazy maintenance pass of Section 3.4: deduplicates the codebook
  /// (duplicates accumulate after subject removals) and rewrites every
  /// page's embedded codes through the remapping, merging transitions that
  /// became redundant. One sequential pass; pages whose codes are already
  /// canonical and merged are left untouched. Runs as one update
  /// transaction: concurrent pinned queries keep reading the pre-compaction
  /// snapshot until it commits.
  Status CompactCodebook();

  /// Offline visibility-clustered reorganization, the "secure VACUUM"
  /// (DESIGN.md §12). Re-cuts page boundaries at access-code run
  /// boundaries (document order and node ids untouched) so pages become
  /// code-homogeneous wherever runs reach min_run_records — per-class page
  /// verdicts turn decisive and batch page skipping fires for mixed
  /// batches. Runs as one WAL-logged update transaction (kWalVacuum;
  /// replay re-runs the deterministic planner), followed by a checkpoint
  /// by default so the wholesale page rewrite does not linger in the log.
  /// Answers are byte-identical before and after: codes, node ids, and
  /// document order are all preserved.
  struct VacuumOptions {
    /// Passed to the layout planner: a page is cut at a code-run boundary
    /// only once it holds this many records (see VacuumPlanOptions).
    uint32_t min_run_records = 16;
    /// Checkpoint (persist + WAL truncate) after the reorganization.
    bool checkpoint_after = true;
  };
  struct VacuumStats {
    size_t pages_before = 0;
    size_t pages_after = 0;
    size_t homogeneous_pages_before = 0;
    size_t homogeneous_pages_after = 0;
    size_t transitions_after = 0;
  };
  Status Vacuum(const VacuumOptions& options, VacuumStats* stats = nullptr);

  // --- Support for the stricter view semantics (Section 4.2) -----------

  /// Computes the maximal document-order intervals hidden from `subject`
  /// under the Gabillon-Bruno semantics (a non-accessible node hides its
  /// entire subtree). One sequential pass; every page is loaded at most
  /// once, and pages whose in-memory header proves them wholly accessible
  /// and not under a hidden subtree are not loaded at all.
  ///
  /// Results are cached per subject for the current epoch; every commit
  /// moves the cache to the new epoch, dropping only the entries the
  /// update could have changed (an ACL patch: the updated subject's; a
  /// structural update: all), so repeated view-semantics queries by one
  /// subject pay the sweep once per change to its visibility. Safe for
  /// concurrent callers. The sweep runs without holding the cache mutex,
  /// and its result is kept only if no commit moved the cache past the
  /// caller's epoch meanwhile; a pinned caller at an older epoch computes
  /// from its snapshot without polluting the cache. The intervals are
  /// immutable and shared with the cache, so a hit copies nothing; the
  /// returned pointer keeps them alive after a commit drops the entry.
  ///
  /// With a non-null `stats`, a cache miss's sweep counts its work there
  /// (nodes_scanned per probed slot, codes_checked per ACCESS probe,
  /// fetch_waits and pages_prefetched for its page I/O); a cache hit counts
  /// nothing. The sweep never counts pages_skipped: skipped-page accounting
  /// belongs to the matcher's cursor, keeping EvalResult.exec.pages_skipped
  /// equal to the IoStats::pages_skipped delta of the evaluation.
  Result<std::shared_ptr<const std::vector<NodeInterval>>>
  HiddenSubtreeIntervals(SubjectId subject, ExecStats* stats = nullptr);

  /// `subject`'s codebook column under the calling thread's snapshot
  /// (Codebook::Column: bit e is the subject's access under entry e) — the
  /// one per-subject access table every secure scan checks against. Served
  /// from the epoch-stamped column cache when the caller's epoch is
  /// current, computed from the pinned codebook otherwise. Returns a copy:
  /// commits extend cached columns in place, so a reference could not
  /// outlive the cache lock. InvalidArgument for an unknown subject.
  Result<BitVector> SubjectColumn(SubjectId subject);

  /// Partitions `subjects` into visibility equivalence classes (equal
  /// codebook columns — see GroupSubjectsByColumn), serving columns from an
  /// epoch-stamped cache that updates patch incrementally (ACL updates only
  /// append codebook entries, so a cached column is extended, not
  /// recomputed). The batch evaluator's entry point.
  std::vector<SubjectClass> GroupSubjects(
      const std::vector<SubjectId>& subjects);

  /// Drops the cached hidden intervals and codebook columns. Benchmarks and
  /// tests use this to measure cold recomputation.
  void DropVisibilityCaches();

  /// Rebuilds the logical DolLabeling from the physical pages (for tests
  /// and for re-deriving statistics after updates).
  Result<DolLabeling> ExtractLabeling();

  const IoStats& io_stats() const { return nok_->io_stats(); }

  /// The epoch manager (pin accounting; tests assert zero leaked pins).
  EpochManager* epochs() { return &epochs_; }

  /// The attached write-ahead log, or nullptr when none.
  const WriteAheadLog* wal() const { return wal_.get(); }

  /// LSN of the last update applied to the in-memory state (0 = none /
  /// checkpoint only).
  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_relaxed);
  }

  UpdateStats update_stats() const;

 private:
  SecureStore(std::unique_ptr<NokStore> nok, Codebook codebook);

  /// The calling thread's pinned epoch for this store, or 0 when unpinned.
  EpochManager::Epoch PinnedEpoch() const;

  /// Opens the staged side of an update: a NokStore transaction plus a
  /// private working codebook (codebook() resolves to it on this thread).
  Status BeginStaged();
  /// Discards the staged side; the committed snapshot never changed.
  void AbortStaged();
  /// Seals an update: appends its WAL record (unless replaying), publishes
  /// the staged NokStore state and codebook, advances the epoch, maintains
  /// the visibility caches per `event.kind`, fires the registered commit
  /// hooks with `event` (kind, range and subject filled by the caller;
  /// fingerprint and epoch filled here), and retires the superseded
  /// codebook into the epoch manager.
  Status CommitStaged(uint32_t wal_type, const std::string& payload,
                      CommitEvent event);

  /// Cache maintenance at commit, derived from `event->kind`; caller holds
  /// snapshot_mu_. `old_codebook_size` is the entry count before the
  /// update (cached columns are extended from there — updates other than
  /// kShapeChange only append entries). Fills a kAclPatch event's
  /// fingerprint from the (extended or newly cached) subject column.
  void MaintainCaches(CommitEvent* event, const Codebook& codebook,
                      EpochManager::Epoch new_epoch, size_t old_codebook_size);

  // Update bodies running under update_mu_ (shared by the public mutators
  // and WAL replay; replay passes through with recovering_ set so no new
  // records are logged).
  Status SetRangeAccessLocked(NodeId begin, NodeId end, SubjectId subject,
                              bool accessible);
  Status DeleteSubtreeLocked(NodeId root);
  Result<NodeId> InsertSubtreeLocked(NodeId parent, NodeId after,
                                     const Document& fragment,
                                     const DolLabeling& fragment_labeling);
  Result<SubjectId> AddSubjectLocked(bool default_access);
  Result<SubjectId> AddSubjectLikeLocked(SubjectId like);
  Status RemoveSubjectLocked(SubjectId subject);
  Status CompactCodebookLocked();

  /// The page-rewriting body of SetRangeAccess, already inside a staged
  /// transaction.
  Status SetRangeAccessStaged(NodeId begin, NodeId end, SubjectId subject,
                              bool accessible);

  /// Re-executes one WAL record through the update bodies above.
  Status ReplayRecord(const WriteAheadLog::Record& record);

  /// Persist body; caller holds update_mu_.
  Status PersistLocked();

  Status VacuumLocked(const VacuumOptions& options, VacuumStats* stats);

  /// `subject`'s entry in the column cache, computed and inserted on a
  /// miss; nullptr (and no entry) for an unknown subject. Caller holds
  /// column_cache_mu_ and has matched the cache's epoch stamp to its own.
  const BitVector* CachedColumnLocked(const Codebook& cb, SubjectId subject);

  /// Header-only page verdict for `subject` under the calling thread's
  /// snapshot.
  PageVerdict Verdict(size_t page_ordinal, SubjectId subject) const {
    const NokStore::PageInfo& info = nok_->page_infos()[page_ordinal];
    return ClassifyPage(info, codebook().Accessible(info.first_code, subject));
  }

  /// Computes hidden intervals without consulting the cache, counting the
  /// sweep's work into `stats` when non-null.
  Result<std::vector<NodeInterval>> ComputeHiddenSubtreeIntervals(
      SubjectId subject, ExecStats* stats);

  std::unique_ptr<NokStore> nok_;
  std::unique_ptr<WriteAheadLog> wal_;
  EpochManager epochs_;

  /// Serializes all mutators, Persist, and Checkpoint (the single-writer
  /// contract). Never held by readers.
  std::mutex update_mu_;

  /// Guards snapshot publication against pin acquisition: a commit holds it
  /// while swapping in the new NokStore state, codebook, and epoch, so a
  /// pin taken concurrently sees either all of an update or none of it.
  /// Also guards commit_hooks_ (registration and firing).
  mutable std::mutex snapshot_mu_;
  std::vector<std::function<void(const CommitEvent&)>> commit_hooks_;
  std::shared_ptr<const Codebook> codebook_;
  /// Lock-free mirror of codebook_.get() for unpinned readers.
  std::atomic<const Codebook*> codebook_raw_{nullptr};

  /// Staged working codebook of the open update (writer thread only).
  std::unique_ptr<Codebook> wcodebook_;
  std::atomic<std::thread::id> writer_tid_{};

  /// True while OpenWithWal replays the log (suppresses re-logging).
  bool recovering_ = false;
  /// LSN of the record currently being replayed.
  uint64_t replay_lsn_ = 0;
  std::atomic<uint64_t> applied_lsn_{0};

  // Epoch-stamped visibility caches. Each cache's stamp names the epoch its
  // entries were computed (or carried over) for; a lookup only hits when
  // the caller's epoch equals the stamp, so an entry computed for one epoch
  // is never served at another unless a commit proved it unchanged. Lock
  // order: hidden before column (MaintainCaches, DropVisibilityCaches).
  // Neither mutex is held across page I/O.
  std::mutex hidden_cache_mu_;
  EpochManager::Epoch hidden_cache_epoch_ = 1;
  std::unordered_map<SubjectId,
                     std::shared_ptr<const std::vector<NodeInterval>>>
      hidden_cache_;
  std::mutex column_cache_mu_;
  EpochManager::Epoch column_cache_epoch_ = 1;
  std::unordered_map<SubjectId, BitVector> column_cache_;

  struct Counters {
    std::atomic<uint64_t> updates_applied{0};
    std::atomic<uint64_t> updates_replayed{0};
    std::atomic<uint64_t> epochs_advanced{0};
    std::atomic<uint64_t> columns_patched{0};
    std::atomic<uint64_t> acl_patches_appending{0};
    std::atomic<uint64_t> checkpoints{0};
  };
  Counters counters_;
};

}  // namespace secxml

#endif  // SECXML_CORE_SECURE_STORE_H_
