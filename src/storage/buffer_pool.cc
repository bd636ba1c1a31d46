#include "storage/buffer_pool.h"

#include <cassert>

namespace secxml {

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    page_id_ = other.page_id_;
    page_ = other.page_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::MarkDirty() {
  assert(valid());
  pool_->frames_[frame_].dirty.store(true, std::memory_order_release);
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    page_ = nullptr;
  }
}

size_t BufferPool::AutoShards(size_t capacity) {
  size_t shards = 1;
  while (shards < 16 && capacity / (shards * 2) >= 32) shards *= 2;
  return shards;
}

BufferPool::BufferPool(PagedFile* file, size_t capacity, size_t num_shards)
    : file_(file), capacity_(capacity) {
  assert(capacity > 0);
  if (num_shards == 0) num_shards = AutoShards(capacity);
  if (num_shards > capacity) num_shards = capacity;
  shards_ = std::vector<Shard>(num_shards);
  frames_ = std::make_unique<Frame[]>(capacity);
  // Frames are partitioned round-robin so every shard owns
  // floor(capacity/num_shards) or one more frames, permanently.
  for (size_t i = capacity; i > 0; --i) {
    size_t idx = i - 1;
    shards_[idx % num_shards].free_frames.push_back(idx);
  }
}

BufferPool::~BufferPool() {
  // Best-effort writeback; errors here cannot be reported.
  (void)FlushAll();
}

size_t BufferPool::num_cached() const {
  size_t n = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    n += sh.map.size();
  }
  return n;
}

size_t BufferPool::num_pinned() const {
  // Exact while the pool is quiescent; a consistent approximation otherwise.
  size_t n = 0;
  for (size_t i = 0; i < capacity_; ++i) {
    const Frame& f = frames_[i];
    if (f.id != kInvalidPage && f.pins.load(std::memory_order_relaxed) > 0) {
      ++n;
    }
  }
  return n;
}

void BufferPool::Unpin(size_t frame_index) {
  // No latch: the frame stays on its shard's LRU list while mapped, and
  // eviction skips pinned frames. The release pairs with the evictor's
  // acquire load of the pin count, so a frame it sees unpinned has all of
  // this holder's page accesses behind it.
  uint32_t prev =
      frames_[frame_index].pins.fetch_sub(1, std::memory_order_acq_rel);
  assert(prev > 0);
  (void)prev;
}

std::optional<size_t> BufferPool::VictimLocked(const Shard& shard) const {
  for (size_t idx : shard.lru) {
    // Acquire pairs with the unpinner's release: the last holder's page
    // accesses are done before the frame is reused.
    if (frames_[idx].pins.load(std::memory_order_acquire) == 0) return idx;
  }
  return std::nullopt;
}

bool BufferPool::CanGrabLocked(const Shard& shard) const {
  return !shard.free_frames.empty() || VictimLocked(shard).has_value();
}

Status BufferPool::EvictFrameLocked(Shard* shard, size_t frame_index) {
  Frame& f = frames_[frame_index];
  assert(f.pins.load(std::memory_order_relaxed) == 0);
  if (f.dirty.load(std::memory_order_acquire)) {
    SECXML_RETURN_NOT_OK(file_->WritePage(f.id, f.page));
    stats_.page_writes.fetch_add(1, std::memory_order_relaxed);
    f.dirty.store(false, std::memory_order_relaxed);
  }
  shard->map.erase(f.id);
  shard->lru.erase(f.lru_pos);
  f.id = kInvalidPage;
  return Status::OK();
}

Result<size_t> BufferPool::GrabFrameLocked(Shard* shard) {
  if (!shard->free_frames.empty()) {
    size_t idx = shard->free_frames.back();
    shard->free_frames.pop_back();
    return idx;
  }
  std::optional<size_t> victim = VictimLocked(*shard);
  if (!victim) {
    return Status::IOError("buffer pool shard exhausted: all frames pinned");
  }
  SECXML_RETURN_NOT_OK(EvictFrameLocked(shard, *victim));
  return *victim;
}

void BufferPool::InstallLocked(Shard* shard, size_t frame_index, PageId id) {
  Frame& f = frames_[frame_index];
  f.id = id;
  f.pins.store(1, std::memory_order_relaxed);
  shard->lru.push_back(frame_index);
  f.lru_pos = std::prev(shard->lru.end());
  shard->map[id] = frame_index;
}

void BufferPool::ReleaseFailedLocked(Shard* shard, size_t frame_index) {
  // Every holder of a failed frame is a loader or waiter inside LoadLocked/
  // Fetch, all releasing under the latch, so exactly one sees the last pin.
  if (frames_[frame_index].pins.fetch_sub(1, std::memory_order_acq_rel) ==
      1) {
    shard->free_frames.push_back(frame_index);
  }
}

Result<size_t> BufferPool::LoadLocked(std::unique_lock<std::mutex>* lock,
                                      Shard* shard, PageId id) {
  SECXML_ASSIGN_OR_RETURN(size_t idx, GrabFrameLocked(shard));
  Frame& f = frames_[idx];
  InstallLocked(shard, idx, id);
  f.loading = true;
  ++shard->loading;
  f.dirty.store(false, std::memory_order_relaxed);
  // The frame is pinned and loading, so no other thread reads its bytes,
  // evicts it, or flushes it while the latch is down.
  lock->unlock();
  Status read = file_->ReadPage(id, &f.page);
  lock->lock();
  f.loading = false;
  --shard->loading;
  shard->loaded.notify_all();
  if (!read.ok()) {
    shard->map.erase(id);
    shard->lru.erase(f.lru_pos);
    f.id = kInvalidPage;
    ReleaseFailedLocked(shard, idx);
    return read;
  }
  stats_.page_reads.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

Result<PageHandle> BufferPool::Fetch(PageId id, bool* was_miss) {
  if (was_miss != nullptr) *was_miss = false;
  Shard& sh = shards_[ShardOf(id)];
  std::unique_lock<std::mutex> lock(sh.mu);
  for (;;) {
    auto it = sh.map.find(id);
    if (it != sh.map.end()) {
      size_t idx = it->second;
      Frame& f = frames_[idx];
      sh.lru.splice(sh.lru.end(), sh.lru, f.lru_pos);
      f.pins.fetch_add(1, std::memory_order_relaxed);
      if (f.loading) {
        // The pin keeps the frame ours while the loader reads; a failed
        // read leaves it unmapped, and we retry with a read of our own.
        sh.loaded.wait(lock, [&f] { return !f.loading; });
        if (f.id != id) {
          ReleaseFailedLocked(&sh, idx);
          continue;
        }
      }
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return PageHandle(this, id, &f.page, idx);
    }
    if (sh.loading == 0 || CanGrabLocked(sh)) break;
    // Every frame is pinned, some only by reads in flight (a prefetched
    // frame turns evictable once its read lands): wait rather than fail.
    sh.loaded.wait(lock, [&] {
      return sh.loading == 0 || CanGrabLocked(sh) || sh.map.count(id) != 0;
    });
  }
  SECXML_ASSIGN_OR_RETURN(size_t idx, LoadLocked(&lock, &sh, id));
  if (was_miss != nullptr) *was_miss = true;
  return PageHandle(this, id, &frames_[idx].page, idx);
}

Result<bool> BufferPool::Prefetch(PageId id) {
  Shard& sh = shards_[ShardOf(id)];
  std::unique_lock<std::mutex> lock(sh.mu);
  auto it = sh.map.find(id);
  if (it != sh.map.end()) {
    // Resident or loading: refresh its LRU position.
    sh.lru.splice(sh.lru.end(), sh.lru, frames_[it->second].lru_pos);
    return true;
  }
  if (!CanGrabLocked(sh)) return false;
  SECXML_ASSIGN_OR_RETURN(size_t idx, LoadLocked(&lock, &sh, id));
  // Drop the loader's pin: the page stays resident, unpinned, at the MRU
  // end.
  frames_[idx].pins.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

Result<PageHandle> BufferPool::Allocate() {
  SECXML_ASSIGN_OR_RETURN(PageId id, file_->AllocatePage());
  Shard& sh = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(sh.mu);
  SECXML_ASSIGN_OR_RETURN(size_t idx, GrabFrameLocked(&sh));
  Frame& f = frames_[idx];
  f.page.Zero();
  f.dirty.store(true, std::memory_order_relaxed);
  InstallLocked(&sh, idx, id);
  return PageHandle(this, id, &f.page, idx);
}

Status BufferPool::FlushAll() {
  Status first_error;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (const auto& [id, idx] : sh.map) {
      Frame& f = frames_[idx];
      // A pinned frame may be mid-modification by its holder: writing it
      // now could persist a torn page, and clearing dirty afterwards would
      // silently drop the holder's update. Leave it dirty; it is written
      // back on eviction or a later flush, after the pin is gone. (Acquire
      // pairs with the unpinner's fetch_sub release, so a frame seen at
      // zero pins has all of its holder's page writes visible.)
      if (f.pins.load(std::memory_order_acquire) > 0) continue;
      if (f.dirty.load(std::memory_order_acquire)) {
        Status write = file_->WritePage(f.id, f.page);
        if (!write.ok()) {
          // Keep the frame dirty (no lost update — a later flush retries)
          // and keep flushing the rest: one bad page must not strand every
          // other dirty page in memory.
          if (first_error.ok()) first_error = write;
          continue;
        }
        stats_.page_writes.fetch_add(1, std::memory_order_relaxed);
        f.dirty.store(false, std::memory_order_relaxed);
      }
    }
  }
  SECXML_RETURN_NOT_OK(first_error);
  return file_->Sync();
}

Status BufferPool::EvictAll() {
  Status first_error;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    std::vector<size_t> victims;
    victims.reserve(sh.map.size());
    for (const auto& [id, idx] : sh.map) {
      // Acquire pairs with the unpinner's fetch_sub release: a frame seen
      // at zero pins here has all of its holder's page writes visible, so
      // the dirty flush below reads settled bytes.
      if (frames_[idx].pins.load(std::memory_order_acquire) == 0) {
        victims.push_back(idx);
      }
    }
    for (size_t idx : victims) {
      Status evict = EvictFrameLocked(&sh, idx);
      if (!evict.ok()) {
        // Write-back failed: the frame stays resident and dirty (consistent,
        // retryable), and the sweep moves on to the other victims.
        if (first_error.ok()) first_error = evict;
        continue;
      }
      sh.free_frames.push_back(idx);
    }
  }
  return first_error;
}

}  // namespace secxml
