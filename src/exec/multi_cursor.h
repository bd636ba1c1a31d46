#ifndef SECXML_EXEC_MULTI_CURSOR_H_
#define SECXML_EXEC_MULTI_CURSOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "exec/mask_ops.h"
#include "exec/page_run.h"
#include "nok/nok_format.h"
#include "nok/nok_store.h"

namespace secxml {

/// The multi-subject analogue of SecureCursor: one structural scan answering
/// accessibility for a whole batch of visibility equivalence classes at
/// once. Where the per-subject cursor resolves a DOL code and probes one
/// codebook bit, this cursor resolves the code once and loads one
/// precomputed wide mask whose bit k is class k's accessibility — up to
/// kMaxBatchClasses subjects per mask-AND, in the bit-sliced style of
/// columnar word-parallel scans (ClassMask and the SIMD kernels live in
/// exec/mask_ops.h).
///
/// Attach() compiles two tables from the codebook columns of the class
/// representatives:
///   - code mask: for a codebook entry, the word of per-class
///     accessibility bits (the transposed columns). Materialized lazily,
///     one entry on first touch: a fragment-sized query resolves a handful
///     of distinct codes, and an eager transpose of the whole codebook
///     (entries x classes) would dwarf the scan itself on wide batches;
///   - page dead mask: for every page, the word of classes for which the
///     in-memory header proves the page wholly inaccessible — exactly
///     ClassifyPage (nok/nok_store.h) per class, so the batch page skip
///     agrees with the per-subject one by construction.
///
/// The scan carries a live mask of classes still interested in the current
/// fragment; a page is skipped (never loaded) when its dead mask covers the
/// whole live mask, so pages_skipped scales with how many classes die
/// mid-scan. All accessibility masks returned to callers are already
/// restricted to the requesting live mask.
///
/// Zero-extra-I/O holds exactly as for the per-subject cursor: codes are
/// decoded from the record's own pinned page, so access_only_fetches stays
/// structurally 0 no matter the batch width. Like SecureCursor it reads a
/// page run at a time (PageRun): one pin per run of records on a page, held
/// only between BeginScan and EndScan and dropped before a different page
/// is fetched, and one validated decode of the page's transition list per
/// pin, after which each code is a binary search.
///
/// A cursor is single-threaded; the store underneath is the documented
/// thread-safe read surface. Stats accumulate across scans until the owner
/// resets them; the batch counters (subjects_batched, classes_evaluated,
/// class_dedup_hits) are filled in by the batch evaluator, not here.
class MultiSubjectCursor {
 public:
  struct Options {
    /// Consult batch page verdicts to skip pages wholly inaccessible to
    /// every live class (Section 3.3, generalized to the batch).
    bool page_skip = true;
  };

  /// `class_reps` holds one representative subject per equivalence class,
  /// at most kMaxBatchClasses of them; bit k of every mask refers to
  /// class_reps[k].
  MultiSubjectCursor(SecureStore* store,
                     const std::vector<SubjectId>& class_reps,
                     const Options& options);

  /// Compiles the code and page mask tables from the calling thread's
  /// snapshot of the codebook and page directory. Call once per evaluation,
  /// under the evaluation's SnapshotPin: updates may commit concurrently,
  /// and the pin keeps the tables consistent with the pages the scan reads.
  Status Attach();

  /// Begins a fragment-scoped scan: drops any page still held and resets
  /// the distinct-page dedup map so each avoided page counts toward
  /// pages_skipped exactly once per scan.
  void BeginScan();

  /// Ends the scan: releases the held page's pin.
  void EndScan() { run_.Release(); }

  size_t num_classes() const { return class_reps_.size(); }
  /// Mask with one bit per class of this batch.
  ClassMask FullMask() const { return ClassMask::FirstN(class_reps_.size()); }

  /// Mask of per-class accessibility bits for `code`, materialized on
  /// first touch (the cursor is single-threaded, so the memo needs no
  /// synchronization). Fails closed: an out-of-range code denies every
  /// class, matching Codebook::Accessible.
  const ClassMask& AccessMask(uint32_t code) const {
    static constexpr ClassMask kDenied;
    if (code >= code_mask_.size()) return kDenied;
    if (!code_mask_ready_[code]) MaterializeCodeMask(code);
    return code_mask_[code];
  }

  /// Mask of classes for which the page at `ordinal` is provably wholly
  /// inaccessible (per-class ClassifyPage == kDead).
  ClassMask PageDeadMask(size_t ordinal) const {
    return ordinal < page_dead_.size() ? page_dead_[ordinal] : FullMask();
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
  /// list is kCorruption.
  Result<NokRecord> FetchChecked(size_t ordinal, NodeId u, ClassMask* access);

  /// Tag-index candidate screening for the batch: a candidate on a page
  /// dead for every class in `live` is skipped without loading the page
  /// (returns false, page counted once). Otherwise fetches and checks like
  /// FetchChecked, returning *access already restricted to `live`.
  Result<bool> FetchCandidate(NodeId cand, const ClassMask& live,
                              NokRecord* rec, ClassMask* access);

  /// Next sibling of `u` at `depth` within the parent extent `limit`,
  /// loading no page that is wholly dead for every class in `live` (the
  /// in-memory dead-mask table makes each page test O(1), no I/O).
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
  /// following sibling — mirroring the per-subject ChildWalk.
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
  /// Transposed codebook columns: one word of per-class bits per entry,
  /// lazily materialized (mutable: filling the memo is logically const).
  mutable std::vector<ClassMask> code_mask_;
  mutable std::vector<char> code_mask_ready_;
  /// Per-page word of classes for which the page is wholly dead.
  std::vector<ClassMask> page_dead_;
  /// Per-scan bitmap of pages already counted as skipped.
  std::vector<char> skip_counted_;
  /// The page the scan is reading, pinned across its run of records.
  PageRun run_;
  ExecStats stats_;
};

}  // namespace secxml

#endif  // SECXML_EXEC_MULTI_CURSOR_H_
