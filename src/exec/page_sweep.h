#ifndef SECXML_EXEC_PAGE_SWEEP_H_
#define SECXML_EXEC_PAGE_SWEEP_H_

#include <functional>

#include "common/result.h"
#include "exec/exec_stats.h"
#include "nok/nok_store.h"
#include "storage/buffer_pool.h"
#include "storage/readahead.h"

namespace secxml {

/// Sequential document-order page sweep with background readahead: the
/// page-scoped iteration mode of the hidden-interval sweep, which walks
/// whole pages with PageCodeWalker (nok/nok_format.h) where the query scan
/// (MultiSubjectCursor) walks records. Prefetch requests stream through the
/// store's Readahead (when configured) so device latency overlaps the
/// per-page computation; the destructor drains every in-flight fetch,
/// preserving the no-overlap-with-exclusive-updates contract.
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

#endif  // SECXML_EXEC_PAGE_SWEEP_H_
