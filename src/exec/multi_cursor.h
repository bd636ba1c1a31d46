#ifndef SECXML_EXEC_MULTI_CURSOR_H_
#define SECXML_EXEC_MULTI_CURSOR_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "common/result.h"
#include "common/status.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "exec/mask_ops.h"
#include "exec/page_run.h"
#include "nok/nok_format.h"
#include "nok/nok_store.h"

namespace secxml {

/// The one secure scan cursor of the execution layer: the ε-NoK access
/// pipeline over NoK document-order pages for a batch of visibility
/// equivalence classes, one page run at a time. A single subject is a
/// one-class batch; the paper's unchecked NoK scan (AccessSemantics::kNone)
/// is this cursor with checks off. Bit k of every mask refers to class k.
///
///   fetch (one buffer-pool pin per page run: the cursor keeps the page it
///     last read pinned while the next records fall on it, and a miss counts
///     as a fetch wait; see PageRun)
///     → DOL code decode (from the record's own page — never a second fetch,
///       which is the paper's zero-extra-I/O property, kept honest by the
///       `access_only_fetches` counter staying 0; the page's transition list
///       is validated once per pin, then each code is a binary search)
///     → ACCESS check (one mask per code, below)
///     → dead-page skip (pages whose in-memory header proves them wholly
///       inaccessible to every live class are never loaded).
///
/// Access modes, fixed at construction:
///   - unchecked (Options::secure off): no code is decoded, no page is
///     skipped, and every record's access is the live mask;
///   - one class: the class's codebook column (SecureStore::SubjectColumn,
///     the store's epoch-cached per-subject access table) answers each
///     code with one bit test;
///   - several classes: the transposed columns — for a codebook entry, the
///     mask of per-class accessibility bits — materialized lazily, one entry
///     on first touch: a fragment-sized query resolves a handful of
///     distinct codes, and an eager transpose of the whole codebook
///     (entries x classes) would dwarf the scan itself on wide batches.
/// Either table fails closed: a code past it (corrupt page bytes) denies
/// every class, like Codebook::Accessible.
///
/// A page's dead mask — the classes for which its in-memory header proves
/// it wholly inaccessible — is ClassifyPage (nok/nok_store.h) per class:
/// a clear change bit means every slot carries first_code, so the page is
/// dead for exactly the classes that cannot access first_code.
///
/// The scan carries a live mask of classes still interested in the current
/// fragment; a page is skipped (never loaded) when its dead mask covers the
/// whole live mask, so pages_skipped scales with how many classes die
/// mid-scan. All accessibility masks returned to callers are already
/// restricted to the requesting live mask.
///
/// Iteration modes: document-order (ChildWalk yields a parent's children,
/// page verdicts consulted before each page is touched) and
/// tag-index-driven (FetchCandidate screens tag-posting candidates against
/// page verdicts before fetching). The page-scoped mode of the hidden-
/// interval sweep is PageSweep (exec/page_sweep.h). Direct NokStore and
/// Codebook probing outside this layer is linted away
/// (scripts/check_no_direct_fetch.sh).
///
/// A scan runs from BeginScan to EndScan (ScopedScan brackets both): the
/// cursor holds at most one pin, only inside a scan, and drops it before it
/// fetches a different page (DESIGN.md §6). Scans run under the caller's
/// SnapshotPin, which must outlive them.
///
/// A cursor is single-threaded; the store underneath is the documented
/// thread-safe read surface. Stats accumulate across scans until the owner
/// resets them; the batch counters (subjects_batched, classes_evaluated,
/// class_dedup_hits) are filled in by the batch evaluator, not here.
class MultiSubjectCursor {
 public:
  struct Options {
    /// Off = the original non-secure NoK scan: records only, no checks.
    bool secure = true;
    /// Consult batch page verdicts to skip pages wholly inaccessible to
    /// every live class (Section 3.3, generalized to the batch). Secure
    /// scans only.
    bool page_skip = true;
  };

  /// `class_reps` holds one representative subject per equivalence class,
  /// at most kMaxBatchClasses of them; bit k of every mask refers to
  /// class_reps[k].
  MultiSubjectCursor(SecureStore* store,
                     const std::vector<SubjectId>& class_reps,
                     const Options& options);

  /// Takes the access table from the calling thread's snapshot of the
  /// codebook: the one class's column, or an empty transposed-column memo.
  /// Call once per evaluation, under the evaluation's SnapshotPin: updates
  /// may commit concurrently, and the pin keeps the table consistent with
  /// the pages the scan reads. InvalidArgument for an unknown
  /// representative (secure scans only).
  Status Attach();

  /// Begins a fragment-scoped scan: drops any page still held and resets
  /// the distinct-page dedup map so each avoided page counts toward
  /// pages_skipped exactly once per scan.
  void BeginScan();

  /// Ends the scan: releases the held page's pin.
  void EndScan() { run_.Release(); }

  size_t num_classes() const { return class_reps_.size(); }
  /// Mask with one bit per class of this batch.
  ClassMask FullMask() const { return full_; }

  /// Mask of per-class accessibility bits for `code`: one column bit for a
  /// one-class cursor, else the transposed-column entry, materialized on
  /// first touch (the cursor is single-threaded, so the memo needs no
  /// synchronization). Fails closed: a code past the table denies every
  /// class, matching Codebook::Accessible.
  ClassMask AccessMask(uint32_t code) const {
    if (class_reps_.size() == 1) {
      return code < column_.size() && column_.GetUnchecked(code) ? full_
                                                                 : ClassMask();
    }
    if (code >= code_mask_.size()) return ClassMask();
    if (!code_mask_ready_[code]) MaterializeCodeMask(code);
    return code_mask_[code];
  }

  /// Mask of classes for which the page at `ordinal` is provably wholly
  /// inaccessible (per-class ClassifyPage == kDead), from the in-memory
  /// directory alone.
  ClassMask PageDeadMask(size_t ordinal) const {
    const std::vector<NokStore::PageInfo>& pages = store_->nok()->page_infos();
    if (ordinal >= pages.size()) return full_;
    if (pages[ordinal].change_bit) return ClassMask();
    return full_.AndNot(AccessMask(pages[ordinal].first_code));
  }

  /// True when no class in `live` can see anything on the page:
  /// the dead mask covers the whole live mask.
  bool PageWhollyDeadFor(size_t ordinal, const ClassMask& live) const {
    return PageDeadMask(ordinal).Covers(live);
  }

  /// Secure fetch of node `u` on the page at `ordinal`: record plus the
  /// whole batch's access verdict from the held page (fetched first unless
  /// it is the page already held). The DOL code is resolved from the same
  /// page (zero extra I/O) and answered for every class with one table load
  /// (*access is not yet masked by any live set); a malformed transition
  /// list is kCorruption. Unchecked scans decode nothing: *access is the
  /// full mask.
  Result<NokRecord> FetchChecked(size_t ordinal, NodeId u, ClassMask* access);

  /// Tag-index candidate screening for the batch: a candidate on a page
  /// dead for every class in `live` is skipped without loading the page
  /// (returns false, page counted once). Otherwise fetches and checks like
  /// FetchChecked, returning *access already restricted to `live`.
  Result<bool> FetchCandidate(NodeId cand, const ClassMask& live,
                              NokRecord* rec, ClassMask* access);

  /// Next sibling of `u` at `depth` within the parent extent `limit`,
  /// loading no page that is wholly dead for every class in `live` (each
  /// page test reads the in-memory directory, no I/O).
  Result<NodeId> NextSiblingSkippingDead(NodeId u, uint16_t depth,
                                         NodeId limit, const ClassMask& live);

  /// Counts `ordinal` toward pages_skipped (ExecStats and the store's
  /// IoStats), once per distinct page per scan.
  void CountSkippedPage(size_t ordinal);

  /// Document-order child iteration for the batch: yields the children of
  /// one parent with per-class access masks (restricted to the walk's live
  /// mask), skipping and counting pages dead for every live class. Children
  /// inaccessible to every live class are still yielded (*access == 0) on
  /// live pages, because the walk needs their subtree size to jump to the
  /// following sibling.
  class ChildWalk {
   public:
    /// `parent_rec` must be the record of `parent`; `live` is fixed for the
    /// walk (a recursion frame's live set never grows).
    ChildWalk(MultiSubjectCursor* cursor, NodeId parent,
              const NokRecord& parent_rec, const ClassMask& live);

    /// Advances to the next child; false when the walk is exhausted.
    Result<bool> Next(NodeId* u, NokRecord* rec, ClassMask* access);

   private:
    MultiSubjectCursor* c_;
    ClassMask live_;
    NodeId next_ = kInvalidNode;
    NodeId parent_end_ = 0;
    uint16_t child_depth_ = 0;
    /// Cached page extent of the last verdict check, so consecutive
    /// siblings in one page cost no repeated page-table lookups.
    NodeId page_begin_ = 0, page_end_ = 0;
    size_t page_ordinal_ = 0;
    bool page_dead_ = false;
  };

  const Options& options() const { return options_; }
  SecureStore* store() { return store_; }
  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }

 private:

  /// Fills code_mask_[code] with the per-class bits of one codebook entry
  /// (O(classes) point probes, done at most once per distinct code).
  void MaterializeCodeMask(uint32_t code) const;

  SecureStore* store_;
  std::vector<SubjectId> class_reps_;
  Options options_;
  ClassMask full_;
  /// A one-class cursor's access table: the class's codebook column at
  /// Attach.
  BitVector column_;
  /// Transposed codebook columns: one mask of per-class bits per entry,
  /// lazily materialized (mutable: filling the memo is logically const).
  mutable std::vector<ClassMask> code_mask_;
  mutable std::vector<char> code_mask_ready_;
  /// Per-scan bitmap of pages already counted as skipped.
  std::vector<char> skip_counted_;
  /// The page the scan is reading, pinned across its run of records.
  PageRun run_;
  ExecStats stats_;
};

}  // namespace secxml

#endif  // SECXML_EXEC_MULTI_CURSOR_H_
