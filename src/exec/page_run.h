#ifndef SECXML_EXEC_PAGE_RUN_H_
#define SECXML_EXEC_PAGE_RUN_H_

#include <cstddef>
#include <cstdint>

#include "common/result.h"
#include "common/status.h"
#include "exec/exec_stats.h"
#include "nok/nok_format.h"
#include "nok/nok_store.h"
#include "storage/buffer_pool.h"

namespace secxml {

/// The page a scan cursor is reading, pinned across the run of records that
/// fall on it: the first record of a run costs one buffer-pool fetch, the
/// rest cost a bounds test. The DOL region of a page with the change bit is
/// decoded (and validated) once per pin, on the first code asked of it, so
/// a record's code is a binary search instead of a walk of the page's
/// transition list.
///
/// Pin discipline (DESIGN.md §6): a PageRun holds at most one pin, and
/// drops it *before* fetching a different page, so a thread scanning
/// through it never holds more than one pin at a time. The owning cursor
/// releases it at EndScan (and on destruction); the pin never outlives the
/// scan's snapshot pin, and pages visible to a snapshot are never written
/// in place (NokStore::CowFetch copies them first), so holding it across
/// records is safe under concurrent commits.
class PageRun {
 public:
  /// Holds the page at directory `ordinal`: free when it is already held,
  /// otherwise the held pin is dropped, the page fetched (a miss counts a
  /// fetch wait in `stats`) and its directory entry captured.
  Status Hold(NokStore* nok, size_t ordinal, ExecStats* stats) {
    if (handle_.valid() && ordinal == ordinal_) return Status::OK();
    return Fetch(nok, ordinal, stats);
  }

  /// Holds the page at `ordinal` for reading node `n`, which must lie on it
  /// (kCorruption otherwise; see CheckNodeInPage).
  Status HoldNode(NokStore* nok, size_t ordinal, NodeId n, ExecStats* stats) {
    SECXML_RETURN_NOT_OK(Hold(nok, ordinal, stats));
    if (n - info_.first_node >= info_.num_records) {
      return CheckNodeInPage(info_, n);
    }
    return Status::OK();
  }

  /// Whether node `n` lies on the held page.
  bool Holds(NodeId n) const {
    return handle_.valid() && n - info_.first_node < info_.num_records;
  }

  /// Page ordinal of node `n`: the held page's when `n` lies on it (the
  /// held-extent shortcut that saves the directory search for the next
  /// record of a run), else NokStore::PageOrdinalOf.
  size_t OrdinalOf(const NokStore* nok, NodeId n) const {
    return Holds(n) ? ordinal_ : nok->PageOrdinalOf(n);
  }

  /// Record of node `n`, which must lie on the held page.
  NokRecord Record(NodeId n) const {
    return handle_.page().ReadAt<NokRecord>(
        RecordOffset(n - info_.first_node));
  }

  /// DOL code of node `n`, which must lie on the held page: the directory's
  /// first code when the change bit is clear, else a binary search of the
  /// page's transition list (decoded on first use; kCorruption when it is
  /// malformed).
  Status Code(NodeId n, uint32_t* code) {
    if (!info_.change_bit) {
      *code = info_.first_code;
      return Status::OK();
    }
    if (!decoded_) SECXML_RETURN_NOT_OK(Decode());
    *code = codes_.CodeAt(n - info_.first_node);
    return Status::OK();
  }

  /// Holds the page at `ordinal` and returns its first node at exactly
  /// `depth` below `limit`, or kInvalidNode: the probe for a following
  /// sibling past skipped pages. The sibling it finds is then read from the
  /// same pin.
  Result<NodeId> FirstAtDepth(NokStore* nok, size_t ordinal, uint16_t depth,
                              NodeId limit, ExecStats* stats);

  /// Drops the held pin (no-op when none is held).
  void Release() { handle_.Release(); }

 private:
  Status Fetch(NokStore* nok, size_t ordinal, ExecStats* stats);
  Status Decode();

  PageHandle handle_;
  size_t ordinal_ = 0;
  NokStore::PageInfo info_;
  bool decoded_ = false;
  PageCodes codes_;
};

/// Brackets one fragment scan of a cursor: BeginScan on construction,
/// EndScan on every exit — errors included — so no cursor pin outlives the
/// scan that took it.
template <typename Cursor>
class ScopedScan {
 public:
  explicit ScopedScan(Cursor* cursor) : cursor_(cursor) {
    cursor_->BeginScan();
  }
  ~ScopedScan() { cursor_->EndScan(); }
  ScopedScan(const ScopedScan&) = delete;
  ScopedScan& operator=(const ScopedScan&) = delete;

 private:
  Cursor* cursor_;
};

}  // namespace secxml

#endif  // SECXML_EXEC_PAGE_RUN_H_
