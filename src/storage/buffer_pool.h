#ifndef SECXML_STORAGE_BUFFER_POOL_H_
#define SECXML_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/paged_file.h"

namespace secxml {

class BufferPool;

/// RAII pin on a buffered page. While alive, the frame will not be evicted
/// and the Page pointer stays valid. Mark the page dirty before dropping the
/// handle if it was modified.
///
/// A PageHandle may be used (and destroyed) on any thread, but a single
/// handle must not be shared between threads without external
/// synchronization. Two handles on the same page see the same bytes:
/// concurrent readers are safe; a writer requires that no other thread
/// touches that page's content concurrently (see DESIGN.md, "Concurrency
/// model").
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  const Page& page() const { return *page_; }
  Page* mutable_page() { return page_; }

  /// Marks the page as modified; it will be written back on eviction/flush.
  void MarkDirty();

  /// Releases the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, PageId id, Page* page, size_t frame)
      : pool_(pool), page_id_(id), page_(page), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  PageId page_id_ = kInvalidPage;
  Page* page_ = nullptr;
  size_t frame_ = 0;
};

/// Fixed-capacity LRU buffer pool over a PagedFile, with pin counting and
/// I/O statistics.
///
/// Thread-safe: the frame table is partitioned into shards, each guarded by
/// its own latch. A page belongs to the shard `page_id % num_shards`, and
/// every shard owns a disjoint subset of the frames, so Fetch/Allocate/
/// Unpin/eviction for pages in different shards never contend. Pin counts
/// and the dirty flag are atomics, so MarkDirty and handle release take no
/// latch on the hot path (release only latches when the pin count drops to
/// zero, to requeue the frame on its shard's LRU list).
///
/// Latch ordering (see DESIGN.md): a thread holds at most one shard latch at
/// a time, and may acquire the PagedFile's internal lock underneath it
/// (physical I/O happens while the owning shard latch is held). Shard
/// latches are never nested; whole-pool sweeps (FlushAll, EvictAll) visit
/// shards one at a time in ascending index order.
class BufferPool {
 public:
  /// `capacity` is the number of page frames held in memory. `num_shards`
  /// selects the latch sharding; 0 picks automatically (one shard per 32
  /// frames, rounded down to a power of two, at most 16 — so small pools,
  /// including every unit-test pool, behave exactly like the historical
  /// single-LRU pool). Capacity is partitioned across shards, so a shard
  /// can be exhausted while others have free frames; callers that fetch
  /// with high skew should use fewer shards.
  BufferPool(PagedFile* file, size_t capacity, size_t num_shards = 0);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool();

  /// Pins page `id`, reading it from the file on a miss. Fails if every
  /// frame in the page's shard is pinned or the read fails. When `was_miss`
  /// is non-null it is set to whether this fetch had to wait on a physical
  /// read (cursors use it to attribute fetch waits to themselves; the shared
  /// IoStats counters cannot be attributed under concurrency).
  Result<PageHandle> Fetch(PageId id, bool* was_miss = nullptr);

  /// Background prefetch: makes page `id` resident *without pinning it*,
  /// installed (or refreshed) at the MRU end of its shard's LRU list, so a
  /// foreground Fetch shortly after is a hit. Never takes a frame a
  /// foreground fetch could need: when every frame of the shard is pinned
  /// the request is dropped and false returned. True when the page is
  /// resident afterwards. Counts a physical read but never a cache hit (a
  /// prefetch is not an access).
  Result<bool> Prefetch(PageId id);

  /// Allocates a fresh page in the file and pins it (zeroed, dirty).
  Result<PageHandle> Allocate();

  /// Writes back all dirty *unpinned* pages (keeps them cached). Pinned
  /// frames are skipped — their holder may be mid-modification, so flushing
  /// could persist a torn page and lose the holder's update; they are
  /// written back on eviction or a later flush once unpinned. On a write
  /// error the frame stays dirty (retryable), the sweep continues over the
  /// remaining frames, and the first error is returned at the end.
  Status FlushAll();

  /// Drops every unpinned page from the cache, writing dirty ones back.
  /// Benchmarks use this to measure cold-cache behaviour. Safe to run
  /// concurrently with fetches; pinned pages are left alone. A frame whose
  /// write-back fails stays resident and dirty; the sweep continues and the
  /// first error is returned at the end.
  Status EvictAll();

  const IoStats& stats() const { return stats_; }
  IoStats* mutable_stats() { return &stats_; }

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  size_t num_cached() const;
  size_t num_pinned() const;

 private:
  friend class PageHandle;

  struct Frame {
    Page page;
    PageId id = kInvalidPage;
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> dirty{false};
    /// Shard owning this frame; fixed at construction.
    uint32_t home_shard = 0;
    /// Position in the shard's lru list when pins == 0 and resident.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  /// One latch shard: a slice of the frame table with its own page map,
  /// LRU list, and free list. All three, plus the non-atomic Frame fields
  /// (id, lru_pos, in_lru) of the shard's frames, are guarded by `mu`.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<PageId, size_t> map;  // page id -> frame index
    std::list<size_t> lru;                   // front = least recently used
    std::vector<size_t> free_frames;
  };

  static size_t AutoShards(size_t capacity);

  size_t ShardOf(PageId id) const { return id % shards_.size(); }

  void Unpin(size_t frame_index);
  /// Requires `shard.mu` held and frames_[frame_index].pins == 0.
  Status EvictFrameLocked(Shard* shard, size_t frame_index);
  /// Finds a frame to (re)use within `shard`: a free one, else the LRU
  /// unpinned victim. Requires `shard.mu` held.
  Result<size_t> GrabFrameLocked(Shard* shard);
  /// Shared tail of Fetch-miss and Allocate. Requires `shard.mu` held.
  Result<PageHandle> InstallLocked(Shard* shard, size_t frame_index,
                                   PageId id);

  PagedFile* file_;
  size_t capacity_;
  std::unique_ptr<Frame[]> frames_;
  std::vector<Shard> shards_;
  IoStats stats_;
};

}  // namespace secxml

#endif  // SECXML_STORAGE_BUFFER_POOL_H_
