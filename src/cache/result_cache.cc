#include "cache/result_cache.h"

#include <algorithm>

namespace secxml::cache {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Fixed per-entry overhead charged on top of the payload and key bytes
/// (hash node, LRU node, Resident bookkeeping).
constexpr size_t kEntryOverhead = 96;

}  // namespace

ResultCache::ResultCache(const ResultCacheOptions& options)
    : shard_mask_(RoundUpPow2(options.shards == 0 ? 1 : options.shards) - 1),
      shard_budget_(options.max_bytes / (shard_mask_ + 1)),
      shards_(shard_mask_ + 1) {}

ResultCache::Probe ResultCache::Get(const ResultKey& key, Epoch reader_epoch) {
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.table.find(key);
  if (it != shard.table.end() && it->second.entry.epoch <= reader_epoch) {
    // Valid for this reader: every commit since the entry's epoch that
    // could have affected it would already have erased it before the
    // reader's epoch became pinnable (the store fires invalidation hooks
    // under its snapshot-publication lock).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    hits_.fetch_add(1, std::memory_order_relaxed);
    Probe p;
    p.outcome = ProbeOutcome::kHit;
    p.payload = it->second.entry.payload;
    p.epoch = it->second.entry.epoch;
    return p;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Probe p;
  if (shard.in_flight.count(key) != 0) {
    p.outcome = ProbeOutcome::kMissInFlight;
  } else {
    shard.in_flight.insert(key);
    p.outcome = ProbeOutcome::kMissLead;
  }
  return p;
}

ResultCache::Probe ResultCache::GetOrWait(const ResultKey& key,
                                          Epoch reader_epoch) {
  Shard& shard = ShardOf(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  uint32_t waits = 0;
  for (;;) {
    auto it = shard.table.find(key);
    if (it != shard.table.end() && it->second.entry.epoch <= reader_epoch) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      hits_.fetch_add(1, std::memory_order_relaxed);
      Probe p;
      p.outcome = ProbeOutcome::kHit;
      p.payload = it->second.entry.payload;
      p.epoch = it->second.entry.epoch;
      p.waits = waits;
      return p;
    }
    if (shard.in_flight.count(key) == 0) {
      shard.in_flight.insert(key);
      misses_.fetch_add(1, std::memory_order_relaxed);
      Probe p;
      p.outcome = ProbeOutcome::kMissLead;
      p.waits = waits;
      return p;
    }
    // Leader in progress: wait for its Publish/Abandon, then re-probe. The
    // leader may publish at an epoch this reader cannot use (reader pinned
    // older), in which case the re-probe takes leadership and evaluates
    // live against its own snapshot.
    ++waits;
    single_flight_waits_.fetch_add(1, std::memory_order_relaxed);
    shard.flight_cv.wait(lock);
  }
}

bool ResultCache::Publish(const ResultKey& key, Entry entry) {
  Shard& shard = ShardOf(key);
  const size_t entry_bytes = (entry.payload ? entry.payload->ApproxBytes() : 0) +
                             key.ApproxBytes() + kEntryOverhead;
  bool admitted = false;
  {
    // events_mu_ is held across validation AND insertion so an invalidation
    // (which records its event, then sweeps the shards, all under
    // events_mu_) can never interleave between the two and miss this entry.
    std::lock_guard<std::mutex> events_lock(events_mu_);
    bool stale = entry.epoch < floor_epoch_ || entry.payload == nullptr;
    if (!stale) {
      for (const Event& ev : events_) {
        if (EventAffects(ev, key, entry)) {
          stale = true;
          break;
        }
      }
    }
    const bool oversized = entry_bytes > shard_budget_;
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!stale && !oversized) {
      auto it = shard.table.find(key);
      if (it != shard.table.end()) {
        // Replace (a non-leader published first, or a newer-epoch answer
        // landed). Either way both values are correct for their epochs;
        // keep the newer one.
        if (entry.epoch >= it->second.entry.epoch) {
          bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
          shard.resident_bytes -= it->second.bytes;
          it->second.entry = std::move(entry);
          it->second.bytes = entry_bytes;
          bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
          shard.resident_bytes += entry_bytes;
          shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
        }
        admitted = true;
      } else {
        // Evict from the cold end until the newcomer fits its shard slice.
        while (!shard.lru.empty() &&
               shard.resident_bytes + entry_bytes > shard_budget_) {
          auto victim = shard.table.find(shard.lru.back());
          EraseLocked(shard, victim);
          evictions_.fetch_add(1, std::memory_order_relaxed);
        }
        shard.lru.push_front(key);
        Resident r;
        r.entry = std::move(entry);
        r.lru_it = shard.lru.begin();
        r.bytes = entry_bytes;
        shard.table.emplace(key, std::move(r));
        entries_.fetch_add(1, std::memory_order_relaxed);
        bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
        shard.resident_bytes += entry_bytes;
        inserts_.fetch_add(1, std::memory_order_relaxed);
        admitted = true;
      }
    } else {
      rejected_inserts_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.in_flight.erase(key);
  }
  shard.flight_cv.notify_all();
  return admitted;
}

void ResultCache::Abandon(const ResultKey& key) {
  Shard& shard = ShardOf(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.in_flight.erase(key);
  }
  shard.flight_cv.notify_all();
}

void ResultCache::InvalidateAclRange(uint64_t column_hi, uint64_t column_lo,
                                     uint64_t begin, uint64_t end,
                                     Epoch epoch) {
  Event ev;
  ev.column_hi = column_hi;
  ev.column_lo = column_lo;
  ev.begin = begin;
  ev.end = end;
  ev.structural = false;
  ev.epoch = epoch;
  std::lock_guard<std::mutex> events_lock(events_mu_);
  events_.push_back(ev);
  if (events_.size() > kMaxEvents) {
    // History dropped: anything older than the dropped event can no longer
    // be checked, so the floor rises and such publishes are rejected.
    floor_epoch_ = std::max(floor_epoch_, events_.front().epoch);
    events_.pop_front();
  }
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.table.begin(); it != shard.table.end();) {
      if (EventAffects(ev, it->first, it->second.entry)) {
        it = EraseLocked(shard, it);
        invalidated_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
}

void ResultCache::Flush(Epoch epoch) {
  std::lock_guard<std::mutex> events_lock(events_mu_);
  floor_epoch_ = std::max(floor_epoch_, epoch);
  // The floor now subsumes all recorded history.
  events_.clear();
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.table.begin(); it != shard.table.end();) {
      it = EraseLocked(shard, it);
    }
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
}

std::unordered_map<ResultKey, ResultCache::Resident, ResultKeyHash>::iterator
ResultCache::EraseLocked(
    Shard& shard,
    std::unordered_map<ResultKey, Resident, ResultKeyHash>::iterator it) {
  bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  shard.resident_bytes -= it->second.bytes;
  entries_.fetch_sub(1, std::memory_order_relaxed);
  shard.lru.erase(it->second.lru_it);
  return shard.table.erase(it);
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.rejected_inserts = rejected_inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidated = invalidated_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.single_flight_waits = single_flight_waits_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace secxml::cache
