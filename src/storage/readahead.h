#ifndef SECXML_STORAGE_READAHEAD_H_
#define SECXML_STORAGE_READAHEAD_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "storage/buffer_pool.h"

namespace secxml {

/// Document-order readahead for sequential page sweeps: a small pool of
/// background workers that load requested pages into the shared BufferPool
/// without pinning them (BufferPool::Prefetch), so a later synchronous Fetch
/// by the sweep is a cache hit. Because a prefetch holds no pin, it can
/// never take the last frame a foreground query needs: when a shard has no
/// free or evictable frame the request is dropped (counted in no_frame).
/// This overlaps device read latency (LatencyPagedFile, real disks) with
/// the computation between pages — the sweep stays simple and synchronous
/// while up to `num_workers` reads are in flight.
///
/// Thread safety: Request/Drain/stats may be called from any thread; the
/// workers only touch the BufferPool (itself fully thread-safe). Lock
/// ordering: the Readahead mutex sits above the buffer-pool shard latches
/// and is never taken underneath one.
///
/// Contract with the store's exclusive-update rule: a prefetch is a read, so
/// every code path that issues requests must Drain() before returning
/// (use ReadaheadDrainGuard). Then no background fetch can overlap a
/// subsequent store update.
class Readahead {
 public:
  /// Plain-value counters, taken at one instant.
  struct Stats {
    /// Requests accepted into the queue.
    uint64_t requested = 0;
    /// Requests rejected because the queue was full or the page was already
    /// queued.
    uint64_t dropped = 0;
    /// Background fetches finished (already resident, physical read, no
    /// frame, or failed).
    uint64_t completed = 0;
    /// Completed requests dropped because every frame of the page's shard
    /// was pinned by foreground work (the page was not loaded).
    uint64_t no_frame = 0;
    /// Background fetches that returned an error (an I/O fault); harmless
    /// for correctness — the sweep's own Fetch retries synchronously — but
    /// surfaced so callers can see a device going bad even when the
    /// foreground path later succeeds.
    uint64_t failed = 0;
    /// Status of the first failed background fetch (OK when failed == 0).
    Status first_error = Status::OK();
  };

  explicit Readahead(BufferPool* pool, size_t num_workers = 2,
                     size_t max_queue = 64);
  ~Readahead();

  Readahead(const Readahead&) = delete;
  Readahead& operator=(const Readahead&) = delete;

  /// Enqueues `id` for background fetching. Never blocks: the request is
  /// dropped if the queue is full or the page is already queued.
  void Request(PageId id);

  /// Blocks until every accepted request has completed (queue empty, no
  /// fetch in flight). Cheap when idle.
  void Drain();

  size_t num_workers() const { return workers_.size(); }
  Stats stats() const;

 private:
  void WorkerLoop();

  BufferPool* pool_;
  size_t max_queue_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // signaled on new work / stop
  std::condition_variable drain_cv_;  // signaled when fully idle
  std::deque<PageId> queue_;
  std::unordered_set<PageId> queued_;  // mirror of queue_ for O(1) dedup
  size_t in_flight_ = 0;
  bool stop_ = false;
  Stats stats_;

  std::vector<std::thread> workers_;
};

/// Scope guard ensuring no background fetch outlives the read operation
/// that issued it. Tolerates a null Readahead (prefetching disabled).
class ReadaheadDrainGuard {
 public:
  explicit ReadaheadDrainGuard(Readahead* ra) : ra_(ra) {}
  ~ReadaheadDrainGuard() {
    if (ra_ != nullptr) ra_->Drain();
  }

  ReadaheadDrainGuard(const ReadaheadDrainGuard&) = delete;
  ReadaheadDrainGuard& operator=(const ReadaheadDrainGuard&) = delete;

 private:
  Readahead* ra_;
};

}  // namespace secxml

#endif  // SECXML_STORAGE_READAHEAD_H_
