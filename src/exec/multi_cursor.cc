#include "exec/multi_cursor.h"

#include <string>

#include "common/bitvector.h"

namespace secxml {

MultiSubjectCursor::MultiSubjectCursor(SecureStore* store,
                                       const std::vector<SubjectId>& class_reps,
                                       const Options& options)
    : store_(store), class_reps_(class_reps), options_(options) {
  SECXML_DCHECK(!class_reps_.empty() &&
                class_reps_.size() <= kMaxBatchClasses);
}

Status MultiSubjectCursor::Attach() {
  if (class_reps_.empty() || class_reps_.size() > kMaxBatchClasses) {
    return Status::InvalidArgument("batch cursor needs 1.." +
                                   std::to_string(kMaxBatchClasses) +
                                   " classes, got " +
                                   std::to_string(class_reps_.size()));
  }
  const Codebook& codebook = store_->codebook();
  // The transposed columns (bit k of code_mask_[c] = class k's
  // accessibility under entry c) are materialized per entry on first
  // touch: a scan resolves only the codes its pages actually carry, and
  // eagerly transposing every entry costs entries x classes — more than a
  // fragment-sized scan does in total on wide batches.
  code_mask_.assign(codebook.size(), ClassMask());
  code_mask_ready_.assign(codebook.size(), 0);
  // Per-page batch verdicts from the in-memory directory alone: a clear
  // change bit means every slot carries first_code, so the page is dead for
  // exactly the classes that cannot access first_code — the same
  // classification ClassifyPage applies per subject.
  const std::vector<NokStore::PageInfo>& pages = store_->nok()->page_infos();
  page_dead_.assign(pages.size(), ClassMask());
  const ClassMask full = FullMask();
  for (size_t p = 0; p < pages.size(); ++p) {
    if (!pages[p].change_bit) {
      page_dead_[p] = full.AndNot(AccessMask(pages[p].first_code));
    }
  }
  return Status::OK();
}

void MultiSubjectCursor::MaterializeCodeMask(uint32_t code) const {
  // Accessible() fails closed for an unknown representative, so a bad rep
  // denies rather than misreads — same contract the eager transpose had
  // through Column().
  const Codebook& codebook = store_->codebook();
  ClassMask m;
  for (size_t k = 0; k < class_reps_.size(); ++k) {
    if (codebook.Accessible(code, class_reps_[k])) m.Set(k);
  }
  code_mask_[code] = m;
  code_mask_ready_[code] = 1;
}

void MultiSubjectCursor::BeginScan() {
  run_.Release();
  if (options_.page_skip) {
    skip_counted_.assign(store_->nok()->num_pages(), 0);
  } else {
    skip_counted_.clear();
  }
}

void MultiSubjectCursor::CountSkippedPage(size_t ordinal) {
  if (ordinal < skip_counted_.size() && !skip_counted_[ordinal]) {
    skip_counted_[ordinal] = 1;
    ++stats_.pages_skipped;
    ++store_->nok()->buffer_pool()->mutable_stats()->pages_skipped;
  }
}

Result<NokRecord> MultiSubjectCursor::FetchChecked(size_t ordinal, NodeId u,
                                                   ClassMask* access) {
  SECXML_RETURN_NOT_OK(run_.HoldNode(store_->nok(), ordinal, u, &stats_));
  ++stats_.nodes_scanned;
  // The code lives in u's own page (Section 3.3), so resolving it costs no
  // additional I/O: the held pin, a binary search at worst. One table load
  // then answers accessibility for the whole batch.
  uint32_t code;
  SECXML_RETURN_NOT_OK(run_.Code(u, &code));
  ++stats_.codes_checked;
  *access = AccessMask(code);
  return run_.Record(u);
}

Result<bool> MultiSubjectCursor::FetchCandidate(NodeId cand,
                                                const ClassMask& live,
                                                NokRecord* rec,
                                                ClassMask* access) {
  NokStore* nok = store_->nok();
  if (!run_.Holds(cand) && cand >= nok->num_nodes()) {
    return Status::OutOfRange("node id " + std::to_string(cand) +
                              " out of range");
  }
  size_t ordinal = run_.OrdinalOf(nok, cand);
  if (options_.page_skip && PageWhollyDeadFor(ordinal, live)) {
    // The whole page of postings is dead for every live class; each
    // distinct page counts once no matter how many candidates fall into it.
    CountSkippedPage(ordinal);
    return false;
  }
  SECXML_ASSIGN_OR_RETURN(*rec, FetchChecked(ordinal, cand, access));
  *access &= live;
  return true;
}

Result<NodeId> MultiSubjectCursor::NextSiblingSkippingDead(
    NodeId u, uint16_t depth, NodeId limit, const ClassMask& live) {
  NokStore* nok = store_->nok();
  size_t ordinal = run_.OrdinalOf(nok, u) + 1;
  while (ordinal < nok->num_pages()) {
    const NokStore::PageInfo& info = nok->page_infos()[ordinal];
    if (info.first_node >= limit) return kInvalidNode;
    if (PageWhollyDeadFor(ordinal, live)) {
      // Nothing in this page is visible to any live class: any sibling
      // inside it would be pruned for everyone, so the page is never
      // loaded. The dead-mask table makes this test one in-memory AND.
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

MultiSubjectCursor::ChildWalk::ChildWalk(MultiSubjectCursor* cursor,
                                         NodeId parent,
                                         const NokRecord& parent_rec,
                                         const ClassMask& live)
    : c_(cursor),
      live_(live),
      next_(NokStore::FirstChild(parent, parent_rec)),
      parent_end_(parent + parent_rec.subtree_size),
      child_depth_(static_cast<uint16_t>(parent_rec.depth + 1)) {}

Result<bool> MultiSubjectCursor::ChildWalk::Next(NodeId* u, NokRecord* rec,
                                                 ClassMask* access) {
  NokStore* nok = c_->store_->nok();
  while (next_ != kInvalidNode) {
    NodeId n = next_;
    // Consult the batch page verdict before touching n's page: skipped iff
    // dead for every class still live in this walk.
    if (c_->options_.page_skip) {
      if (n < page_begin_ || n >= page_end_) {
        page_ordinal_ = c_->run_.OrdinalOf(nok, n);
        const NokStore::PageInfo& info = nok->page_infos()[page_ordinal_];
        page_begin_ = info.first_node;
        page_end_ = info.first_node + info.num_records;
        page_dead_ = c_->PageWhollyDeadFor(page_ordinal_, live_);
      }
      if (page_dead_) {
        c_->CountSkippedPage(page_ordinal_);
        SECXML_ASSIGN_OR_RETURN(
            next_,
            c_->NextSiblingSkippingDead(n, child_depth_, parent_end_, live_));
        continue;
      }
    }
    size_t ordinal =
        c_->options_.page_skip ? page_ordinal_ : c_->run_.OrdinalOf(nok, n);
    SECXML_ASSIGN_OR_RETURN(*rec, c_->FetchChecked(ordinal, n, access));
    *access &= live_;
    next_ = NokStore::FollowingSibling(n, *rec, parent_end_);
    *u = n;
    return true;
  }
  return false;
}

}  // namespace secxml
