#include "exec/page_sweep.h"

#include <utility>

namespace secxml {

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
