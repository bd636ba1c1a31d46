#ifndef SECXML_STORAGE_IO_STATS_H_
#define SECXML_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>

namespace secxml {

/// A plain-value copy of the IoStats counters, taken at one instant. Used to
/// compute deltas over a batch of work and to report aggregates from code
/// that must not hold references into a live (still-changing) counter set.
struct IoStatsSnapshot {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t cache_hits = 0;
  uint64_t pages_skipped = 0;

  IoStatsSnapshot operator-(const IoStatsSnapshot& rhs) const {
    return {page_reads - rhs.page_reads, page_writes - rhs.page_writes,
            cache_hits - rhs.cache_hits, pages_skipped - rhs.pages_skipped};
  }
};

/// Counters for physical page traffic. The paper's central performance claim
/// is that DOL accessibility checks add no I/O to NoK query evaluation, so
/// the benchmarks observe these counters rather than (only) wall-clock time.
///
/// The counters are atomic so that concurrent queries sharing one buffer
/// pool account their traffic without torn or dropped increments. Updates
/// need no ordering guarantees (they are statistics, not synchronization),
/// so writers may use relaxed operations; the implicit conversions used by
/// existing call sites (`++stats.page_reads`, `uint64_t r = stats.cache_hits`)
/// remain valid on the atomic fields.
struct IoStats {
  std::atomic<uint64_t> page_reads{0};
  std::atomic<uint64_t> page_writes{0};
  /// Buffer-pool fetches that found their page resident (no physical
  /// read). This counts pool calls: the scan cursors fetch once per page
  /// run rather than per record (DESIGN.md §6), so on the scan path it
  /// counts page runs.
  std::atomic<uint64_t> cache_hits{0};
  /// Page loads avoided entirely via the in-memory DOL page headers
  /// (Section 3.3's "skip fully inaccessible page" optimization).
  std::atomic<uint64_t> pages_skipped{0};

  void Reset() {
    page_reads.store(0, std::memory_order_relaxed);
    page_writes.store(0, std::memory_order_relaxed);
    cache_hits.store(0, std::memory_order_relaxed);
    pages_skipped.store(0, std::memory_order_relaxed);
  }

  IoStatsSnapshot Snapshot() const {
    return {page_reads.load(std::memory_order_relaxed),
            page_writes.load(std::memory_order_relaxed),
            cache_hits.load(std::memory_order_relaxed),
            pages_skipped.load(std::memory_order_relaxed)};
  }
};

}  // namespace secxml

#endif  // SECXML_STORAGE_IO_STATS_H_
