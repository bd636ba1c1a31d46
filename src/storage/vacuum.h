#ifndef SECXML_STORAGE_VACUUM_H_
#define SECXML_STORAGE_VACUUM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace secxml {

/// Visibility-clustered page layout planning — the storage half of the
/// "secure VACUUM" (DESIGN.md §12). Node ids are document-order positions,
/// so a reorganization may never reorder records; what it may move are the
/// *page boundaries*. The planner cuts pages at access-code run boundaries
/// so that pages come out code-homogeneous wherever runs are long enough: a
/// homogeneous page has no embedded transitions, its change bit stays
/// clear, and every per-class page verdict (ClassifyPage, the batch
/// dead-mask) becomes decisive — dead pages are skipped, not loaded.
///
/// This header is a pure algorithm over the per-record code sequence; the
/// record store supplies its page geometry explicitly (src/storage must not
/// include NoK headers — the same layering the fetch lint enforces).

/// Byte layout of one page of the record store: fixed header, fixed-size
/// records from the front, fixed-size code-transition entries from the tail.
struct PageGeometry {
  size_t page_bytes = 0;
  size_t header_bytes = 0;
  size_t record_bytes = 0;
  size_t transition_bytes = 0;
};

struct VacuumPlanOptions {
  /// Hard cap on records per page (slot numbering); 0 means the geometric
  /// maximum (header + records filling the whole page).
  size_t max_records_per_page = 0;
  /// Transition slots reserved per page for future in-place ACL updates,
  /// mirroring the store's packing slack so vacuumed pages keep the same
  /// update headroom as freshly built ones.
  size_t transition_slack = 0;
  /// A code run must reach this many records to earn clean pages of its
  /// own: the planner cuts at a run boundary only when the page so far is
  /// one clean run of at least this length, or when the run about to start
  /// is at least this long. Boundaries between shorter runs never cut, so
  /// noisy regions coalesce into capacity-packed mixed pages instead of
  /// fragmenting the page count. 0 cuts at every boundary — maximal
  /// homogeneity, maximal page count.
  size_t min_run_records = 16;
};

/// The planned layout plus the numbers the bench and tests assert on.
struct VacuumPlan {
  /// Record index at which each new page starts; page_starts[0] == 0, and
  /// page i holds records [page_starts[i], page_starts[i+1]).
  std::vector<uint64_t> page_starts;
  /// Pages whose records all carry one code (no embedded transitions).
  size_t homogeneous_pages = 0;
  size_t mixed_pages = 0;
  /// Embedded transitions summed across all planned pages.
  size_t transitions = 0;
};

/// Plans the clustered layout for `codes` (one access code per record, in
/// document order). Deterministic: WAL replay of a vacuum re-runs the
/// planner on identical input and must produce the identical layout.
VacuumPlan PlanVisibilityClusteredLayout(std::span<const uint32_t> codes,
                                         const PageGeometry& geometry,
                                         const VacuumPlanOptions& options);

}  // namespace secxml

#endif  // SECXML_STORAGE_VACUUM_H_
