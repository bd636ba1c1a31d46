#ifndef SECXML_EXEC_SECURE_CURSOR_H_
#define SECXML_EXEC_SECURE_CURSOR_H_

#include <functional>
#include <vector>

#include "common/bitvector.h"
#include "common/result.h"
#include "common/status.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "exec/page_run.h"
#include "nok/nok_format.h"
#include "nok/nok_store.h"

namespace secxml {

/// The one secure scan primitive of the execution layer. A SecureCursor owns
/// the full ε-NoK access pipeline over NoK document-order pages, one page
/// run at a time:
///
///   fetch (one buffer-pool pin per page run: the cursor keeps the page it
///     last read pinned while the next records fall on it, and a miss counts
///     as a fetch wait; see PageRun)
///     → DOL code decode (from the record's own page — never a second fetch,
///       which is the paper's zero-extra-I/O property, kept honest by the
///       `access_only_fetches` counter staying 0; the page's transition list
///       is validated once per pin, then each code is a binary search)
///     → ACCESS check (one bit test against the subject's codebook column,
///       snapshotted at Attach)
///     → dead-page skip (pages whose in-memory header proves them wholly
///       inaccessible — ClassifyPage on the column bit of first_code — are
///       never loaded)
///     → readahead hints (sequential sweeps stream upcoming pages through
///       the store's background prefetcher; see PageSweep).
///
/// Iteration modes:
///  - document-order: ChildWalk yields a parent's children in order, page
///    verdicts consulted before each page is touched;
///  - tag-index-driven: FetchCandidate screens tag-posting candidates
///    against page verdicts before fetching;
///  - page-scoped: PageSweep + PageCodeWalker (nok/nok_format.h) iterate
///    whole pages for the sequential consumers (hidden-interval sweep).
///
/// Every consumer of secure record access — the NoK matcher, the structural
/// join's input scans, the visibility sweep, the stream filter (via
/// LabelStreamCursor) — goes through this layer; direct
/// NokStore/Codebook probing outside it is linted away
/// (scripts/check_no_direct_fetch.sh).
///
/// A scan runs from BeginScan to EndScan (ScopedScan brackets both): the
/// cursor holds at most one pin, only inside a scan, and drops it before it
/// fetches a different page (DESIGN.md §6). Scans run under the caller's
/// SnapshotPin, which must outlive them.
///
/// A cursor is single-threaded (each QueryDriver worker owns its own); the
/// store underneath is the documented thread-safe read surface. Stats
/// accumulate in the cursor's ExecStats across scans until reset by the
/// owner.
class SecureCursor {
 public:
  struct Options {
    /// Off = the original non-secure NoK scan (records only, no checks).
    bool secure = false;
    SubjectId subject = 0;
    /// Consult page verdicts to skip wholly-inaccessible pages (Sec. 3.3).
    bool page_skip = true;
  };

  SecureCursor(SecureStore* store, const Options& options)
      : store_(store), options_(options) {}

  /// Snapshots the subject's codebook column for this evaluation (secure
  /// mode only; served from the store's epoch-stamped column cache). Call
  /// before scanning under the query's SnapshotPin; the cursor's own copy
  /// keeps later commits, which extend the cache in place, out of the scan.
  /// InvalidArgument for an unknown subject.
  Status Attach();

  /// Begins a fragment-scoped scan: drops any page still held and resets
  /// the distinct-page dedup map so each avoided page counts toward
  /// pages_skipped exactly once per scan.
  void BeginScan();

  /// Ends the scan: releases the held page's pin.
  void EndScan() { run_.Release(); }

  // --- Node-at-a-time access -------------------------------------------

  /// Secure fetch of node `u` on the page at `ordinal`: record and access
  /// verdict from the held page (fetched first unless it is the page
  /// already held). The code is resolved from the same page and probed
  /// (codes_checked); a malformed transition list is kCorruption.
  Result<NokRecord> FetchChecked(size_t ordinal, NodeId u, bool* accessible);

  /// Non-secure record fetch (plain NoK scan).
  Result<NokRecord> Fetch(NodeId u);

  /// Tag-index candidate screening: consults the page verdict first; a
  /// candidate on a wholly-dead page is skipped without loading the page
  /// (returns false, page counted once). Otherwise fetches and checks like
  /// FetchChecked. In non-secure mode always fetches with *accessible=true.
  Result<bool> FetchCandidate(NodeId cand, NokRecord* rec, bool* accessible);

  /// Next sibling of `u` at `depth` within the parent extent `limit`,
  /// loading no wholly-dead page.
  Result<NodeId> NextSiblingSkippingDead(NodeId u, uint16_t depth,
                                         NodeId limit);

  /// The inner ACCESS check: one bit test against the attached column.
  /// Fails closed: an out-of-range code (corrupt page bytes) denies, like
  /// Codebook::Accessible.
  bool CodeAccessible(uint32_t code) const {
    return code < column_.size() && column_.GetUnchecked(code);
  }

  /// Page-skip verdict from the in-memory header (ClassifyPage on the
  /// column bit of the page's first code).
  bool PageWhollyDead(size_t ordinal) const {
    const NokStore::PageInfo& info = store_->nok()->page_infos()[ordinal];
    return ClassifyPage(info, CodeAccessible(info.first_code)) ==
           PageVerdict::kDead;
  }

  /// Counts `ordinal` toward pages_skipped (ExecStats and the store's
  /// IoStats), once per distinct page per scan — the candidate filter, the
  /// inline sibling skip, and NextSiblingSkippingDead can all reject the
  /// same page, and each avoided page load counts exactly once.
  void CountSkippedPage(size_t ordinal);

  /// Document-order child iteration: yields the children of one parent,
  /// skipping (and counting) wholly-dead pages in secure page-skip mode.
  /// Inaccessible children on live pages are still yielded (with
  /// *accessible = false) because the walk needs their subtree size to jump
  /// to the following sibling.
  class ChildWalk {
   public:
    /// `parent_rec` must be the record of `parent`.
    ChildWalk(SecureCursor* cursor, NodeId parent,
              const NokRecord& parent_rec);

    /// Advances to the next child; false when the walk is exhausted.
    Result<bool> Next(NodeId* u, NokRecord* rec, bool* accessible);

   private:
    SecureCursor* c_;
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

  SecureStore* store_;
  Options options_;
  /// The page the scan is reading, pinned across its run of records.
  PageRun run_;
  /// The subject's codebook column at Attach (empty when not secure).
  BitVector column_;
  /// Per-scan bitmap of pages already counted as skipped.
  std::vector<char> skip_counted_;
  ExecStats stats_;
};

/// Sequential document-order page sweep with background readahead: the
/// page-scoped iteration mode of the hidden-interval sweep. Prefetch
/// requests stream through the store's Readahead (when configured) so
/// device latency overlaps the per-page computation; the destructor drains
/// every in-flight fetch, preserving the no-overlap-with-exclusive-updates
/// contract.
class PageSweep {
 public:
  /// Pages for which `skip` returns true are not prefetched (the consumer
  /// will not fetch them either); each PrefetchFrom call issues up to
  /// `window` not-skipped pages.
  PageSweep(NokStore* nok, std::function<bool(size_t)> skip,
            ExecStats* stats);
  ~PageSweep();

  PageSweep(const PageSweep&) = delete;
  PageSweep& operator=(const PageSweep&) = delete;

  /// Tops up the prefetch window beyond `ordinal`. Cheap no-op when the
  /// store has no readahead configured.
  void PrefetchFrom(size_t ordinal);

  /// Pins the page at `ordinal`; counts a fetch wait on a physical read.
  Result<PageHandle> Fetch(size_t ordinal);

 private:
  NokStore* nok_;
  Readahead* ra_;
  size_t window_;
  std::function<bool(size_t)> skip_;
  ExecStats* stats_;
  size_t prefetch_cursor_ = 0;
};

}  // namespace secxml

#endif  // SECXML_EXEC_SECURE_CURSOR_H_
