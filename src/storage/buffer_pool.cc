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
    uint32_t home = static_cast<uint32_t>(idx % num_shards);
    frames_[idx].home_shard = home;
    shards_[home].free_frames.push_back(idx);
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
  Frame& f = frames_[frame_index];
  // The home shard is fixed at construction, so it is safe to read without
  // the latch even though the frame may be concurrently re-pinned or
  // evicted once our pin is gone.
  Shard& sh = shards_[f.home_shard];
  uint32_t prev = f.pins.fetch_sub(1, std::memory_order_acq_rel);
  assert(prev > 0);
  if (prev != 1) return;
  // Last pin dropped: queue the frame for eviction. Re-check the frame's
  // state under the latch — between the decrement and the lock another
  // thread may have re-pinned, evicted, or already requeued it. The push is
  // guarded by the current state, so whichever unpinner gets the latch
  // first does the requeue and the others back off. The pin load must be
  // acquire: a stalled unpinner can requeue on behalf of a *later* holder
  // whose decrement it observes only through this load, and the requeue
  // makes the frame evictable — without the acquire edge that holder's
  // page reads would race with the evictor's read into the frame.
  std::lock_guard<std::mutex> lock(sh.mu);
  if (f.id != kInvalidPage && !f.in_lru &&
      f.pins.load(std::memory_order_acquire) == 0) {
    sh.lru.push_back(frame_index);
    f.lru_pos = std::prev(sh.lru.end());
    f.in_lru = true;
  }
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
  if (f.in_lru) {
    shard->lru.erase(f.lru_pos);
    f.in_lru = false;
  }
  f.id = kInvalidPage;
  return Status::OK();
}

Result<size_t> BufferPool::GrabFrameLocked(Shard* shard) {
  if (!shard->free_frames.empty()) {
    size_t idx = shard->free_frames.back();
    shard->free_frames.pop_back();
    return idx;
  }
  if (shard->lru.empty()) {
    return Status::IOError(
        "buffer pool shard exhausted: all frames pinned");
  }
  size_t victim = shard->lru.front();
  SECXML_RETURN_NOT_OK(EvictFrameLocked(shard, victim));
  return victim;
}

Result<PageHandle> BufferPool::InstallLocked(Shard* shard, size_t frame_index,
                                             PageId id) {
  Frame& f = frames_[frame_index];
  f.id = id;
  f.pins.store(1, std::memory_order_relaxed);
  f.in_lru = false;
  shard->map[id] = frame_index;
  return PageHandle(this, id, &f.page, frame_index);
}

Result<PageHandle> BufferPool::Fetch(PageId id, bool* was_miss) {
  if (was_miss != nullptr) *was_miss = false;
  Shard& sh = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.map.find(id);
  if (it != sh.map.end()) {
    size_t idx = it->second;
    Frame& f = frames_[idx];
    if (f.in_lru) {
      sh.lru.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.pins.fetch_add(1, std::memory_order_relaxed);
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return PageHandle(this, id, &f.page, idx);
  }
  SECXML_ASSIGN_OR_RETURN(size_t idx, GrabFrameLocked(&sh));
  Frame& f = frames_[idx];
  // The physical read happens under the shard latch: the frame is not yet
  // mapped, so no other thread can observe it, and misses for pages of
  // other shards proceed in parallel.
  Status read = file_->ReadPage(id, &f.page);
  if (!read.ok()) {
    sh.free_frames.push_back(idx);
    return read;
  }
  stats_.page_reads.fetch_add(1, std::memory_order_relaxed);
  if (was_miss != nullptr) *was_miss = true;
  f.dirty.store(false, std::memory_order_relaxed);
  return InstallLocked(&sh, idx, id);
}

Result<bool> BufferPool::Prefetch(PageId id) {
  Shard& sh = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.map.find(id);
  if (it != sh.map.end()) {
    // Resident: refresh its LRU position unless a holder has it pinned
    // (a pinned frame is requeued at the MRU end on its last unpin anyway).
    Frame& f = frames_[it->second];
    if (f.in_lru) sh.lru.splice(sh.lru.end(), sh.lru, f.lru_pos);
    return true;
  }
  if (sh.free_frames.empty() && sh.lru.empty()) return false;
  SECXML_ASSIGN_OR_RETURN(size_t idx, GrabFrameLocked(&sh));
  Frame& f = frames_[idx];
  Status read = file_->ReadPage(id, &f.page);
  if (!read.ok()) {
    sh.free_frames.push_back(idx);
    return read;
  }
  stats_.page_reads.fetch_add(1, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
  f.id = id;
  f.pins.store(0, std::memory_order_relaxed);
  sh.map[id] = idx;
  sh.lru.push_back(idx);
  f.lru_pos = std::prev(sh.lru.end());
  f.in_lru = true;
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
  return InstallLocked(&sh, idx, id);
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
      // the dirty flush below reads settled bytes. (Frames that reached
      // the LRU get this edge through sh.mu; this scan bypasses it.)
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
