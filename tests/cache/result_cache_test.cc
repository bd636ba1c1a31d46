#include "cache/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "cache/plan_cache.h"

namespace secxml::cache {
namespace {

/// Minimal payload: a byte size for the budget plus a tag so tests can tell
/// payloads apart without depending on the query layer.
class Blob : public CacheableResult {
 public:
  explicit Blob(size_t bytes, int tag = 0) : bytes_(bytes), tag_(tag) {}
  size_t ApproxBytes() const override { return bytes_; }
  int tag() const { return tag_; }

 private:
  size_t bytes_;
  int tag_;
};

// The class fingerprint Key() uses unless told otherwise.
constexpr uint64_t kHi = 1;
constexpr uint64_t kLo = 2;

ResultKey Key(const std::string& q, uint64_t hi = kHi, uint64_t lo = kLo) {
  ResultKey k;
  k.column_hi = hi;
  k.column_lo = lo;
  k.query = q;
  return k;
}

ResultCache::Entry MakeEntry(uint64_t epoch, uint64_t begin, uint64_t end,
                             bool acl_independent = false,
                             size_t bytes = 16, int tag = 0) {
  ResultCache::Entry e;
  e.payload = std::make_shared<Blob>(bytes, tag);
  e.epoch = epoch;
  e.begin = begin;
  e.end = end;
  e.acl_independent = acl_independent;
  return e;
}

int TagOf(const std::shared_ptr<const CacheableResult>& p) {
  return static_cast<const Blob*>(p.get())->tag();
}

TEST(ResultCacheTest, MissLeadsThenHitSharesPayload) {
  ResultCache cache;
  ResultKey k = Key("q1");
  auto p1 = cache.Get(k, 5);
  EXPECT_EQ(p1.outcome, ResultCache::ProbeOutcome::kMissLead);
  ASSERT_TRUE(cache.Publish(k, MakeEntry(5, 0, 100)));
  auto p2 = cache.Get(k, 5);
  ASSERT_EQ(p2.outcome, ResultCache::ProbeOutcome::kHit);
  EXPECT_EQ(p2.epoch, 5u);
  auto p3 = cache.Get(k, 9);
  ASSERT_EQ(p3.outcome, ResultCache::ProbeOutcome::kHit);
  // Hits share the published payload by reference, never a copy.
  EXPECT_EQ(p2.payload.get(), p3.payload.get());
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
  // p3's lead was never taken (it hit); p2 hit; only the original flight
  // existed, and Publish released it — a fresh key probes clean.
  EXPECT_EQ(cache.Get(Key("q2"), 5).outcome,
            ResultCache::ProbeOutcome::kMissLead);
  cache.Abandon(Key("q2"));
}

TEST(ResultCacheTest, OlderReaderNotServedNewerEntry) {
  ResultCache cache;
  ResultKey k = Key("q");
  EXPECT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kMissLead);
  ASSERT_TRUE(cache.Publish(k, MakeEntry(5, 0, 100)));
  // A reader pinned at epoch 4 predates the entry's snapshot: the entry may
  // bake in updates the reader's snapshot excludes, so it must miss.
  auto p = cache.Get(k, 4);
  EXPECT_EQ(p.outcome, ResultCache::ProbeOutcome::kMissLead);
  cache.Abandon(k);
  // The entry itself is untouched for current readers.
  EXPECT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kHit);
}

TEST(ResultCacheTest, RangeInvalidationIsFootprintScoped) {
  ResultCache cache;
  ResultKey hit_key = Key("overlap");
  ResultKey miss_key = Key("disjoint");
  ResultKey indep_key = Key("independent");
  for (const ResultKey& k : {hit_key, miss_key, indep_key}) {
    ASSERT_EQ(cache.Get(k, 1).outcome, ResultCache::ProbeOutcome::kMissLead);
  }
  ASSERT_TRUE(cache.Publish(hit_key, MakeEntry(1, 10, 20)));
  ASSERT_TRUE(cache.Publish(miss_key, MakeEntry(1, 100, 200)));
  ASSERT_TRUE(cache.Publish(indep_key, MakeEntry(1, 0, 0, true)));

  cache.InvalidateAclRange(kHi, kLo, 15, 55, 2);

  // Overlapping footprint erased; disjoint and acl-independent survive.
  EXPECT_EQ(cache.Get(hit_key, 2).outcome,
            ResultCache::ProbeOutcome::kMissLead);
  cache.Abandon(hit_key);
  EXPECT_EQ(cache.Get(miss_key, 2).outcome, ResultCache::ProbeOutcome::kHit);
  EXPECT_EQ(cache.Get(indep_key, 2).outcome, ResultCache::ProbeOutcome::kHit);
  auto s = cache.stats();
  EXPECT_EQ(s.invalidated, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(ResultCacheTest, RangeInvalidationIsClassScoped) {
  ResultCache cache;
  // Same query and footprint, three classes: the updated one (kHi, kLo)
  // and two others, one differing in each fingerprint half.
  ResultKey updated = Key("q");
  ResultKey other_hi = Key("q", kHi + 1, kLo);
  ResultKey other_lo = Key("q", kHi, kLo + 1);
  ResultKey updated_disjoint = Key("elsewhere");
  for (const ResultKey& k : {updated, other_hi, other_lo, updated_disjoint}) {
    ASSERT_EQ(cache.Get(k, 1).outcome, ResultCache::ProbeOutcome::kMissLead);
  }
  ASSERT_TRUE(cache.Publish(updated, MakeEntry(1, 10, 20)));
  ASSERT_TRUE(cache.Publish(other_hi, MakeEntry(1, 10, 20)));
  ASSERT_TRUE(cache.Publish(other_lo, MakeEntry(1, 10, 20)));
  ASSERT_TRUE(cache.Publish(updated_disjoint, MakeEntry(1, 100, 200)));

  cache.InvalidateAclRange(kHi, kLo, 15, 55, 2);

  // Only the named class's overlapping entry goes.
  EXPECT_EQ(cache.Get(updated, 2).outcome,
            ResultCache::ProbeOutcome::kMissLead);
  cache.Abandon(updated);
  EXPECT_EQ(cache.Get(other_hi, 2).outcome, ResultCache::ProbeOutcome::kHit);
  EXPECT_EQ(cache.Get(other_lo, 2).outcome, ResultCache::ProbeOutcome::kHit);
  EXPECT_EQ(cache.Get(updated_disjoint, 2).outcome,
            ResultCache::ProbeOutcome::kHit);
  auto s = cache.stats();
  EXPECT_EQ(s.invalidated, 1u);
  EXPECT_EQ(s.entries, 3u);
}

TEST(ResultCacheTest, LatePublishRejectedOnlyForTheInvalidatedClass) {
  ResultCache cache;
  ResultKey same = Key("racy");
  ResultKey other = Key("racy", kHi + 7, kLo);
  ASSERT_EQ(cache.Get(same, 5).outcome, ResultCache::ProbeOutcome::kMissLead);
  ASSERT_EQ(cache.Get(other, 5).outcome,
            ResultCache::ProbeOutcome::kMissLead);
  // Both evaluations are in flight when a commit changes class (kHi, kLo)
  // over both footprints.
  cache.InvalidateAclRange(kHi, kLo, 0, 100, 7);
  // The same class's answer may be stale: rejected.
  EXPECT_FALSE(cache.Publish(same, MakeEntry(5, 10, 20)));
  // Another class's visibility did not change: admitted.
  EXPECT_TRUE(cache.Publish(other, MakeEntry(5, 10, 20)));
  auto s = cache.stats();
  EXPECT_EQ(s.rejected_inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(cache.Get(other, 7).outcome, ResultCache::ProbeOutcome::kHit);
}

TEST(ResultCacheTest, InvalidationSparesEntriesAtOrAfterCommitEpoch) {
  ResultCache cache;
  ResultKey k = Key("q");
  ASSERT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kMissLead);
  ASSERT_TRUE(cache.Publish(k, MakeEntry(5, 0, 100)));
  // The commit at epoch 5 is what the entry was computed against — an
  // invalidation for that same commit must not erase it.
  cache.InvalidateAclRange(kHi, kLo, 0, 100, 5);
  EXPECT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kHit);
  cache.InvalidateAclRange(kHi, kLo, 0, 100, 6);
  EXPECT_EQ(cache.Get(k, 6).outcome, ResultCache::ProbeOutcome::kMissLead);
  cache.Abandon(k);
}

TEST(ResultCacheTest, FlushErasesAllAndRaisesFloor) {
  ResultCache cache;
  for (const char* q : {"a", "b", "c"}) {
    ResultKey k = Key(q);
    ASSERT_EQ(cache.Get(k, 1).outcome, ResultCache::ProbeOutcome::kMissLead);
    ASSERT_TRUE(cache.Publish(k, MakeEntry(1, 0, 10)));
  }
  EXPECT_EQ(cache.stats().entries, 3u);
  cache.Flush(10);
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.flushes, 1u);
  // Anything computed before the flush epoch is rejected from here on, even
  // acl-independent answers (the flush models a shape change).
  ResultKey k = Key("late");
  ASSERT_EQ(cache.Get(k, 9).outcome, ResultCache::ProbeOutcome::kMissLead);
  EXPECT_FALSE(cache.Publish(k, MakeEntry(9, 0, 0, true)));
  ASSERT_EQ(cache.Get(k, 10).outcome, ResultCache::ProbeOutcome::kMissLead);
  EXPECT_TRUE(cache.Publish(k, MakeEntry(10, 0, 0, true)));
}

TEST(ResultCacheTest, LatePublishRejectedByRacingInvalidation) {
  ResultCache cache;
  ResultKey k = Key("racy");
  ASSERT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kMissLead);
  // The evaluation is in flight when a commit invalidates its footprint.
  cache.InvalidateAclRange(kHi, kLo, 0, 100, 7);
  EXPECT_FALSE(cache.Publish(k, MakeEntry(5, 10, 20)));
  EXPECT_EQ(cache.stats().rejected_inserts, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  // Disjoint footprints and acl-independent answers are unaffected by the
  // recorded event and publish normally.
  ResultKey k2 = Key("disjoint");
  ASSERT_EQ(cache.Get(k2, 5).outcome, ResultCache::ProbeOutcome::kMissLead);
  EXPECT_TRUE(cache.Publish(k2, MakeEntry(5, 200, 300)));
  ResultKey k3 = Key("independent");
  ASSERT_EQ(cache.Get(k3, 5).outcome, ResultCache::ProbeOutcome::kMissLead);
  EXPECT_TRUE(cache.Publish(k3, MakeEntry(5, 0, 0, true)));
}

TEST(ResultCacheTest, RejectedPublishStillReleasesFlight) {
  ResultCache cache;
  ResultKey k = Key("racy");
  ASSERT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kMissLead);
  cache.Flush(9);
  EXPECT_FALSE(cache.Publish(k, MakeEntry(5, 0, 10)));
  // The flight must be gone: the next probe takes leadership instead of
  // reporting an in-flight evaluation that will never land.
  EXPECT_EQ(cache.Get(k, 9).outcome, ResultCache::ProbeOutcome::kMissLead);
  cache.Abandon(k);
}

TEST(ResultCacheTest, EventRingOverflowRaisesFloor) {
  ResultCache cache;
  // 257 events overflow the 256-entry ring; the dropped event's epoch (1)
  // becomes the floor, so publishes from before it can no longer be checked
  // and are rejected outright — fail closed, never serve maybe-stale.
  for (uint64_t e = 1; e <= 257; ++e) {
    cache.InvalidateAclRange(kHi, kLo, 1000 * e, 1000 * e + 1, e);
  }
  ResultKey k = Key("ancient");
  ASSERT_EQ(cache.Get(k, 300).outcome, ResultCache::ProbeOutcome::kMissLead);
  EXPECT_FALSE(cache.Publish(k, MakeEntry(0, 0, 0, true)));
  // Entries at or above the floor still publish (subject to the remaining
  // recorded events; this one is acl-independent).
  ASSERT_EQ(cache.Get(k, 300).outcome, ResultCache::ProbeOutcome::kMissLead);
  EXPECT_TRUE(cache.Publish(k, MakeEntry(300, 0, 0, true)));
}

TEST(ResultCacheTest, LruEvictsColdEntriesWithinBudget) {
  ResultCacheOptions opts;
  opts.shards = 1;  // one shard so every key shares one LRU list
  opts.max_bytes = 1024;
  ResultCache cache(opts);
  ResultKey a = Key("a"), b = Key("b"), c = Key("c");
  ASSERT_EQ(cache.Get(a, 1).outcome, ResultCache::ProbeOutcome::kMissLead);
  ASSERT_TRUE(cache.Publish(a, MakeEntry(1, 0, 10, false, 300, 1)));
  ASSERT_EQ(cache.Get(b, 1).outcome, ResultCache::ProbeOutcome::kMissLead);
  ASSERT_TRUE(cache.Publish(b, MakeEntry(1, 0, 10, false, 300, 2)));
  // Touch a so b is the cold end.
  ASSERT_EQ(cache.Get(a, 1).outcome, ResultCache::ProbeOutcome::kHit);
  ASSERT_EQ(cache.Get(c, 1).outcome, ResultCache::ProbeOutcome::kMissLead);
  ASSERT_TRUE(cache.Publish(c, MakeEntry(1, 0, 10, false, 300, 3)));
  auto s = cache.stats();
  EXPECT_GE(s.evictions, 1u);
  EXPECT_LE(s.bytes, opts.max_bytes);
  EXPECT_EQ(cache.Get(a, 1).outcome, ResultCache::ProbeOutcome::kHit);
  EXPECT_EQ(cache.Get(c, 1).outcome, ResultCache::ProbeOutcome::kHit);
  EXPECT_EQ(cache.Get(b, 1).outcome, ResultCache::ProbeOutcome::kMissLead);
  cache.Abandon(b);
}

TEST(ResultCacheTest, OversizedEntryRejectedWithoutEvicting) {
  ResultCacheOptions opts;
  opts.shards = 1;
  opts.max_bytes = 1024;
  ResultCache cache(opts);
  ResultKey small = Key("small");
  ASSERT_EQ(cache.Get(small, 1).outcome,
            ResultCache::ProbeOutcome::kMissLead);
  ASSERT_TRUE(cache.Publish(small, MakeEntry(1, 0, 10, false, 100)));
  ResultKey huge = Key("huge");
  ASSERT_EQ(cache.Get(huge, 1).outcome, ResultCache::ProbeOutcome::kMissLead);
  // An entry that alone exceeds the shard budget is rejected outright
  // instead of evicting everything else and still not fitting.
  EXPECT_FALSE(cache.Publish(huge, MakeEntry(1, 0, 10, false, 5000)));
  auto s = cache.stats();
  EXPECT_EQ(s.rejected_inserts, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(cache.Get(small, 1).outcome, ResultCache::ProbeOutcome::kHit);
}

TEST(ResultCacheTest, ReplaceKeepsNewerEpoch) {
  ResultCache cache;
  ResultKey k = Key("q");
  ASSERT_EQ(cache.Get(k, 9).outcome, ResultCache::ProbeOutcome::kMissLead);
  ASSERT_TRUE(cache.Publish(k, MakeEntry(5, 0, 10, false, 16, 5)));
  // A newer-epoch answer replaces the resident one...
  ASSERT_TRUE(cache.Publish(k, MakeEntry(7, 0, 10, false, 16, 7)));
  auto p = cache.Get(k, 9);
  ASSERT_EQ(p.outcome, ResultCache::ProbeOutcome::kHit);
  EXPECT_EQ(TagOf(p.payload), 7);
  // ...and an older-epoch late arrival does not regress it (both answers
  // are correct for their epochs; the cache keeps the newer).
  ASSERT_TRUE(cache.Publish(k, MakeEntry(6, 0, 10, false, 16, 6)));
  p = cache.Get(k, 9);
  ASSERT_EQ(p.outcome, ResultCache::ProbeOutcome::kHit);
  EXPECT_EQ(TagOf(p.payload), 7);
}

TEST(ResultCacheTest, SingleFlightWaitersConvergeOnLeader) {
  ResultCache cache;
  ResultKey k = Key("shared");
  ASSERT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kMissLead);

  constexpr int kWaiters = 4;
  std::atomic<int> arrived{0};
  std::vector<ResultCache::Probe> probes(kWaiters);
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      probes[i] = cache.GetOrWait(k, 5);
    });
  }
  while (arrived.load() < kWaiters) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(cache.Publish(k, MakeEntry(3, 0, 10, false, 16, 42)));
  for (std::thread& t : threads) t.join();
  // Every waiter is served the leader's answer; none evaluated live.
  for (const ResultCache::Probe& p : probes) {
    ASSERT_EQ(p.outcome, ResultCache::ProbeOutcome::kHit);
    EXPECT_EQ(TagOf(p.payload), 42);
  }
}

TEST(ResultCacheTest, AbandonWakesWaiterIntoLeadership) {
  ResultCache cache;
  ResultKey k = Key("abandoned");
  ASSERT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kMissLead);
  std::atomic<bool> arrived{false};
  ResultCache::Probe waiter_probe;
  std::thread waiter([&] {
    arrived.store(true);
    waiter_probe = cache.GetOrWait(k, 5);
  });
  while (!arrived.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.Abandon(k);  // the leader's evaluation failed
  waiter.join();
  // The waiter wakes, finds no entry and no flight, and takes over.
  EXPECT_EQ(waiter_probe.outcome, ResultCache::ProbeOutcome::kMissLead);
  ASSERT_TRUE(cache.Publish(k, MakeEntry(5, 0, 10)));
  EXPECT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kHit);
}

TEST(ResultCacheTest, ConcurrentMissOnSameKeyReportsInFlight) {
  ResultCache cache;
  ResultKey k = Key("inflight");
  ASSERT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kMissLead);
  // The non-blocking probe never waits: a second miss on a led key reports
  // kMissInFlight so batch paths can evaluate live without blocking.
  EXPECT_EQ(cache.Get(k, 5).outcome,
            ResultCache::ProbeOutcome::kMissInFlight);
  cache.Abandon(k);
  EXPECT_EQ(cache.Get(k, 5).outcome, ResultCache::ProbeOutcome::kMissLead);
  cache.Abandon(k);
}

TEST(PlanCacheTest, InsertConvergesOnFirstResident) {
  PlanCache<int> cache(8);
  EXPECT_EQ(cache.Get("q"), nullptr);
  auto mine = std::make_shared<int>(1);
  auto resident = cache.Insert("q", mine);
  EXPECT_EQ(resident.get(), mine.get());
  // A racing second insert yields the already-resident plan, so every
  // caller shares one instance.
  auto theirs = cache.Insert("q", std::make_shared<int>(2));
  EXPECT_EQ(theirs.get(), mine.get());
  EXPECT_EQ(cache.Get("q").get(), mine.get());
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCacheTest, LruCapEvictsColdPlans) {
  PlanCache<int> cache(2);
  cache.Insert("a", std::make_shared<int>(1));
  cache.Insert("b", std::make_shared<int>(2));
  EXPECT_NE(cache.Get("a"), nullptr);  // touch a; b is now cold
  cache.Insert("c", std::make_shared<int>(3));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
}

}  // namespace
}  // namespace secxml::cache
