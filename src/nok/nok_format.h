#ifndef SECXML_NOK_NOK_FORMAT_H_
#define SECXML_NOK_NOK_FORMAT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"
#include "xml/document.h"

namespace secxml {

/// On-disk layout of the NoK succinct document-order storage with embedded
/// DOL access-control data (paper Sections 3.1-3.2, Figure 3).
///
/// A page holds, in order:
///   [NokPageHeader][NokRecord x num_records] ... [DolTransition x T]
/// Records grow from the front, DOL transition entries grow from the back
/// (like slotted-page layouts). The structural records of a document are laid
/// out strictly in document order across pages; a node's id is its document
/// order (preorder) rank, so page k holds the contiguous id range
/// [first_node(k), first_node(k) + num_records(k)).
///
/// The paper's encoding stores nodes in document order with closing
/// parentheses; we store each node's subtree size instead. Subtree size is
/// the prefix-sum form of the same parenthesis string and supports O(1)
/// following-sibling jumps (next sibling id = id + subtree_size).

/// Sentinel for a record with no text value.
inline constexpr uint32_t kNoValueRef = 0xffffffffu;

/// One document node, 16 bytes.
struct NokRecord {
  TagId tag = 0;
  uint32_t subtree_size = 0;
  uint32_t value_ref = kNoValueRef;
  uint16_t depth = 0;
  uint16_t reserved = 0;
};
static_assert(sizeof(NokRecord) == 16);

/// One embedded DOL transition: document node `first_node + slot` begins a
/// run of nodes sharing access-control code `code`. 8 bytes.
struct DolTransition {
  uint16_t slot = 0;
  uint16_t reserved = 0;
  uint32_t code = 0;
};
static_assert(sizeof(DolTransition) == 8);

/// Page header, 16 bytes at offset 0.
struct NokPageHeader {
  uint16_t num_records = 0;
  /// Depth of the first record (root = 0); used to seed in-page navigation.
  uint16_t first_depth = 0;
  /// Number of embedded DolTransition entries at the page tail, NOT counting
  /// the implicit transition formed by the first record.
  uint16_t num_transitions = 0;
  uint16_t flags = 0;
  /// Access-control code in effect for the first record of the page. The
  /// paper treats every page's first node as a transition node so any node's
  /// code can be resolved within its own page.
  uint32_t first_code = 0;
  uint32_t reserved = 0;

  /// flags bit 0: the paper's "change bit" — set iff the page contains at
  /// least one transition beyond the implicit initial one.
  static constexpr uint16_t kChangeBit = 1;

  bool change_bit() const { return (flags & kChangeBit) != 0; }
  void set_change_bit(bool value) {
    flags = value ? (flags | kChangeBit) : (flags & ~kChangeBit);
  }
};
static_assert(sizeof(NokPageHeader) == 16);

/// Maximum records that fit in a page with no transitions at all.
inline constexpr uint32_t kMaxRecordsPerPage =
    static_cast<uint32_t>((kPageSize - sizeof(NokPageHeader)) /
                          sizeof(NokRecord));

/// Byte offset of record `slot` within a page.
inline constexpr size_t RecordOffset(uint32_t slot) {
  return sizeof(NokPageHeader) + static_cast<size_t>(slot) * sizeof(NokRecord);
}

/// Byte offset of transition entry `i` (0 = last in the page, growing toward
/// the front).
inline constexpr size_t TransitionOffset(uint32_t i) {
  return kPageSize - static_cast<size_t>(i + 1) * sizeof(DolTransition);
}

/// True if a page can hold `records` records plus `transitions` transition
/// entries.
inline constexpr bool PageFits(uint32_t records, uint32_t transitions) {
  return sizeof(NokPageHeader) + static_cast<size_t>(records) * sizeof(NokRecord) +
             static_cast<size_t>(transitions) * sizeof(DolTransition) <=
         kPageSize;
}

/// Validates a header freshly read from page bytes before its counts are
/// used to index into the page. Pages can arrive corrupt (bit rot, torn
/// write, truncated file); trusting num_records/num_transitions from disk
/// would turn such corruption into out-of-bounds page accesses in release
/// builds, where asserts are compiled out.
inline Status CheckOnDiskHeader(const NokPageHeader& header, PageId page_id) {
  if (header.num_records == 0 ||
      !PageFits(header.num_records, header.num_transitions)) {
    return Status::Corruption(
        "corrupt header on page " + std::to_string(page_id) + ": " +
        std::to_string(header.num_records) + " records / " +
        std::to_string(header.num_transitions) +
        " transitions cannot fit one page");
  }
  return Status::OK();
}

/// The one decoder of a page's embedded DOL access region (Section 3.3):
/// the scan cursors, NokStore's point lookups and the page-scoped sweeps
/// all resolve a slot's code through it. Decode validates the region once
/// per pinned page — CheckOnDiskHeader, then transition slots strictly
/// ascending within (0, num_records), the invariant SetPageAcl enforces on
/// write — so each lookup after it is a binary search over the list. A
/// corrupt, unsorted list is kCorruption rather than a plausible wrong code.
/// (A list that is still sorted but carries wrong codes is not detectable
/// here; that needs a per-page checksum.)
///
/// Reads the page in place: the decoder is valid while the pin on `page`
/// that it was decoded from is held.
class PageCodes {
 public:
  PageCodes() = default;

  static Result<PageCodes> Decode(const Page& page, PageId page_id) {
    NokPageHeader header = page.ReadAt<NokPageHeader>(0);
    SECXML_RETURN_NOT_OK(CheckOnDiskHeader(header, page_id));
    PageCodes codes(page, header);
    uint32_t prev = 0;
    for (uint32_t i = 0; i < header.num_transitions; ++i) {
      uint32_t slot = codes.TransitionAt(i).slot;
      if (slot <= prev || slot >= header.num_records) {
        return Status::Corruption(
            "corrupt transition list on page " + std::to_string(page_id) +
            ": entry " + std::to_string(i) + " at slot " +
            std::to_string(slot) + " is not ascending within (0, " +
            std::to_string(header.num_records) + ")");
      }
      prev = slot;
    }
    return codes;
  }

  /// DOL code in effect at `slot`: the last transition at or before it,
  /// else the page's first code. O(log T).
  uint32_t CodeAt(uint32_t slot) const {
    uint32_t lo = 0, hi = header_.num_transitions;
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (TransitionAt(mid).slot <= slot) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo == 0 ? header_.first_code : TransitionAt(lo - 1).code;
  }

  NokRecord RecordAt(uint32_t slot) const {
    return page_->ReadAt<NokRecord>(RecordOffset(slot));
  }

  const NokPageHeader& header() const { return header_; }
  uint32_t num_transitions() const { return header_.num_transitions; }
  DolTransition TransitionAt(uint32_t i) const {
    return page_->ReadAt<DolTransition>(TransitionOffset(i));
  }

 private:
  PageCodes(const Page& page, const NokPageHeader& header)
      : page_(&page), header_(header) {}

  const Page* page_ = nullptr;
  NokPageHeader header_{};
};

/// Walks a decoded page's slots in ascending order, resolving each slot's
/// code in O(1) amortized: the whole-page form of PageCodes::CodeAt for the
/// sequential consumers (the hidden-interval sweep, page rewrites).
class PageCodeWalker {
 public:
  explicit PageCodeWalker(const PageCodes& codes)
      : codes_(&codes), code_(codes.header().first_code) {}

  /// DOL code in effect at `slot`. Slots passed in must ascend.
  uint32_t CodeFor(uint32_t slot) {
    while (next_ < codes_->num_transitions()) {
      DolTransition t = codes_->TransitionAt(next_);
      if (t.slot > slot) break;
      code_ = t.code;
      ++next_;
    }
    return code_;
  }

 private:
  const PageCodes* codes_;
  uint32_t code_;
  uint32_t next_ = 0;
};

}  // namespace secxml

#endif  // SECXML_NOK_NOK_FORMAT_H_
