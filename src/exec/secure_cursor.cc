#include "exec/secure_cursor.h"

#include <string>

namespace secxml {

Status SecureCursor::Attach() {
  column_ = BitVector();
  if (options_.secure) {
    SECXML_ASSIGN_OR_RETURN(column_, store_->SubjectColumn(options_.subject));
  }
  return Status::OK();
}

void SecureCursor::BeginScan() {
  run_.Release();
  if (options_.secure && options_.page_skip) {
    skip_counted_.assign(store_->nok()->num_pages(), 0);
  } else {
    skip_counted_.clear();
  }
}

void SecureCursor::CountSkippedPage(size_t ordinal) {
  if (ordinal < skip_counted_.size() && !skip_counted_[ordinal]) {
    skip_counted_[ordinal] = 1;
    ++stats_.pages_skipped;
    ++store_->nok()->buffer_pool()->mutable_stats()->pages_skipped;
  }
}

Result<NokRecord> SecureCursor::FetchChecked(size_t ordinal, NodeId u,
                                             bool* accessible) {
  SECXML_RETURN_NOT_OK(run_.HoldNode(store_->nok(), ordinal, u, &stats_));
  ++stats_.nodes_scanned;
  // The code lives in u's own page (Section 3.3), so resolving it costs no
  // additional I/O: the held pin, a binary search at worst.
  uint32_t code;
  SECXML_RETURN_NOT_OK(run_.Code(u, &code));
  ++stats_.codes_checked;
  *accessible = CodeAccessible(code);
  return run_.Record(u);
}

Result<NokRecord> SecureCursor::Fetch(NodeId u) {
  NokStore* nok = store_->nok();
  if (!run_.Holds(u)) {
    if (u >= nok->num_nodes()) {
      return Status::OutOfRange("node id " + std::to_string(u) +
                                " out of range");
    }
    SECXML_RETURN_NOT_OK(
        run_.HoldNode(nok, nok->PageOrdinalOf(u), u, &stats_));
  }
  ++stats_.nodes_scanned;
  return run_.Record(u);
}

Result<bool> SecureCursor::FetchCandidate(NodeId cand, NokRecord* rec,
                                          bool* accessible) {
  *accessible = true;
  if (!options_.secure) {
    SECXML_ASSIGN_OR_RETURN(*rec, Fetch(cand));
    return true;
  }
  size_t ordinal = run_.OrdinalOf(store_->nok(), cand);
  if (options_.page_skip && PageWhollyDead(ordinal)) {
    // The whole page of postings is dead; each distinct page counts once
    // toward pages_skipped no matter how many candidates fall into it.
    CountSkippedPage(ordinal);
    return false;
  }
  SECXML_ASSIGN_OR_RETURN(*rec, FetchChecked(ordinal, cand, accessible));
  return true;
}

Result<NodeId> SecureCursor::NextSiblingSkippingDead(NodeId u, uint16_t depth,
                                                     NodeId limit) {
  NokStore* nok = store_->nok();
  size_t ordinal = run_.OrdinalOf(nok, u) + 1;
  while (ordinal < nok->num_pages()) {
    const NokStore::PageInfo& info = nok->page_infos()[ordinal];
    if (info.first_node >= limit) return kInvalidNode;
    if (PageWhollyDead(ordinal)) {
      // Everything in this page is inaccessible: any sibling inside it
      // would be pruned anyway, and the records we would need are exactly
      // the ones the paper's header check lets us avoid reading.
      CountSkippedPage(ordinal);
      ++ordinal;
      continue;
    }
    // Probe this live page for the first node at the sibling depth. The
    // probed records are not yields, so they do not count toward
    // nodes_scanned.
    SECXML_ASSIGN_OR_RETURN(
        NodeId sibling, run_.FirstAtDepth(nok, ordinal, depth, limit, &stats_));
    if (sibling != kInvalidNode) return sibling;
    ++ordinal;
  }
  return kInvalidNode;
}

SecureCursor::ChildWalk::ChildWalk(SecureCursor* cursor, NodeId parent,
                                   const NokRecord& parent_rec)
    : c_(cursor),
      next_(NokStore::FirstChild(parent, parent_rec)),
      parent_end_(parent + parent_rec.subtree_size),
      child_depth_(static_cast<uint16_t>(parent_rec.depth + 1)) {}

Result<bool> SecureCursor::ChildWalk::Next(NodeId* u, NokRecord* rec,
                                           bool* accessible) {
  const Options& opts = c_->options_;
  NokStore* nok = c_->store_->nok();
  while (next_ != kInvalidNode) {
    NodeId n = next_;
    // ε-NoK: consult the page verdict (from the in-memory header) before
    // touching n's page.
    if (opts.secure && opts.page_skip) {
      if (n < page_begin_ || n >= page_end_) {
        page_ordinal_ = c_->run_.OrdinalOf(nok, n);
        const NokStore::PageInfo& info = nok->page_infos()[page_ordinal_];
        page_begin_ = info.first_node;
        page_end_ = info.first_node + info.num_records;
        page_dead_ = c_->PageWhollyDead(page_ordinal_);
      }
      if (page_dead_) {
        c_->CountSkippedPage(page_ordinal_);
        SECXML_ASSIGN_OR_RETURN(
            next_, c_->NextSiblingSkippingDead(n, child_depth_, parent_end_));
        continue;
      }
    }
    *accessible = true;
    if (opts.secure) {
      // With page skipping on, the ordinal is the one cached by the verdict
      // check above.
      size_t ordinal =
          opts.page_skip ? page_ordinal_ : c_->run_.OrdinalOf(nok, n);
      SECXML_ASSIGN_OR_RETURN(*rec, c_->FetchChecked(ordinal, n, accessible));
    } else {
      SECXML_ASSIGN_OR_RETURN(*rec, c_->Fetch(n));
    }
    next_ = NokStore::FollowingSibling(n, *rec, parent_end_);
    *u = n;
    return true;
  }
  return false;
}

PageSweep::PageSweep(NokStore* nok, std::function<bool(size_t)> skip,
                     ExecStats* stats)
    : nok_(nok),
      ra_(nok->readahead()),
      window_(nok->readahead_window()),
      skip_(std::move(skip)),
      stats_(stats) {}

PageSweep::~PageSweep() {
  // No background fetch may outlive the sweep that issued it (the
  // no-overlap-with-exclusive-updates contract).
  if (ra_ != nullptr) ra_->Drain();
}

void PageSweep::PrefetchFrom(size_t ordinal) {
  if (ra_ == nullptr || window_ == 0) return;
  if (prefetch_cursor_ < ordinal + 1) prefetch_cursor_ = ordinal + 1;
  size_t issued = 0;
  while (issued < window_ && prefetch_cursor_ < nok_->num_pages()) {
    size_t ord = prefetch_cursor_++;
    if (skip_ && skip_(ord)) continue;
    ra_->Request(nok_->page_infos()[ord].page_id);
    if (stats_ != nullptr) ++stats_->pages_prefetched;
    ++issued;
  }
}

Result<PageHandle> PageSweep::Fetch(size_t ordinal) {
  if (ordinal >= nok_->num_pages()) {
    return Status::OutOfRange("page ordinal out of range");
  }
  bool miss = false;
  SECXML_ASSIGN_OR_RETURN(
      PageHandle handle,
      nok_->buffer_pool()->Fetch(nok_->page_infos()[ordinal].page_id, &miss));
  if (miss && stats_ != nullptr) ++stats_->fetch_waits;
  return handle;
}

}  // namespace secxml
