// Readahead prefetcher contract: requested pages become buffer-pool
// residents (so the issuer's later Fetch is a cache hit) without ever
// holding a pin, Drain() really waits for every in-flight fetch,
// duplicate/overflow requests are dropped rather than queued twice, a
// shard whose frames are all pinned drops the prefetch instead of failing,
// and concurrent requesters plus foreground fetches on the same pool race
// safely (run under TSan via -L concurrency).

#include "storage/readahead.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/fault_file.h"
#include "storage/paged_file.h"

namespace secxml {
namespace {

class ReadaheadTest : public ::testing::Test {
 protected:
  void FillFile(int pages) {
    for (int i = 0; i < pages; ++i) {
      auto r = file_.AllocatePage();
      ASSERT_TRUE(r.ok());
      Page p;
      p.Zero();
      p.WriteAt<uint32_t>(0, static_cast<uint32_t>(i + 100));
      ASSERT_TRUE(file_.WritePage(*r, p).ok());
    }
  }

  MemPagedFile file_;
};

TEST_F(ReadaheadTest, PrefetchedPageIsCacheHit) {
  FillFile(4);
  BufferPool pool(&file_, 8);
  Readahead ra(&pool, /*num_workers=*/1);
  ra.Request(2);
  ra.Drain();
  EXPECT_EQ(pool.stats().page_reads, 1u);
  auto h = pool.Fetch(2);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->page().ReadAt<uint32_t>(0), 102u);
  EXPECT_EQ(pool.stats().page_reads, 1u) << "fetch should hit the cache";
  EXPECT_EQ(pool.stats().cache_hits, 1u);
}

TEST_F(ReadaheadTest, DrainWaitsForAllRequests) {
  constexpr int kPages = 64;
  FillFile(kPages);
  BufferPool pool(&file_, kPages);
  Readahead ra(&pool, /*num_workers=*/4);
  for (int i = 0; i < kPages; ++i) {
    ra.Request(static_cast<PageId>(i));
  }
  ra.Drain();
  Readahead::Stats stats = ra.stats();
  // Queue capacity covers the burst and no page repeats, so nothing drops
  // and every accepted request was fetched exactly once by drain time.
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.completed, stats.requested);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(pool.stats().page_reads, stats.completed);
  // After the drain every page is resident: re-fetching reads nothing.
  uint64_t reads_before = pool.stats().page_reads;
  for (int i = 0; i < kPages; ++i) {
    auto h = pool.Fetch(static_cast<PageId>(i));
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool.stats().page_reads, reads_before);
}

TEST_F(ReadaheadTest, DuplicateRequestsAreDropped) {
  FillFile(2);
  // A slow read keeps the first fetch in flight (or still queued) for the
  // whole request burst: without it, a single-core scheduler can let the
  // worker complete each fetch between Request calls so no duplicate ever
  // meets the queue and dropped stays 0.
  LatencyPagedFile slow(&file_, std::chrono::milliseconds(20));
  BufferPool pool(&slow, 4);
  // Zero workers is clamped to one; queue the same page repeatedly before
  // it can complete — the queue dedups.
  Readahead ra(&pool, /*num_workers=*/1, /*max_queue=*/4);
  for (int i = 0; i < 100; ++i) ra.Request(1);
  ra.Drain();
  Readahead::Stats stats = ra.stats();
  EXPECT_GE(stats.dropped, 1u);
  EXPECT_EQ(stats.requested + stats.dropped, 100u);
}

TEST_F(ReadaheadTest, PrefetchHoldsNoPinAndDropsWhenShardIsPinned) {
  FillFile(4);
  BufferPool pool(&file_, 2, /*num_shards=*/1);
  // The page becomes resident but unpinned; a prefetch is not an access,
  // so it counts the physical read and no cache hit.
  auto loaded = pool.Prefetch(0);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(*loaded);
  EXPECT_EQ(pool.num_cached(), 1u);
  EXPECT_EQ(pool.num_pinned(), 0u);
  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().cache_hits, 0u);

  // Foreground fetches may pin every frame: the unpinned prefetched page
  // is simply evicted to make room.
  auto h1 = pool.Fetch(1);
  auto h2 = pool.Fetch(2);
  ASSERT_TRUE(h1.ok()) << h1.status();
  ASSERT_TRUE(h2.ok()) << h2.status();
  EXPECT_EQ(pool.num_pinned(), 2u);

  // Every frame pinned: the prefetch is dropped — no error, no read.
  const uint64_t reads = pool.stats().page_reads;
  auto dropped = pool.Prefetch(3);
  ASSERT_TRUE(dropped.ok()) << dropped.status();
  EXPECT_FALSE(*dropped);
  EXPECT_EQ(pool.stats().page_reads, reads);
  {
    // Through a worker the drop is counted, not reported as a failure.
    Readahead ra(&pool, /*num_workers=*/1);
    ra.Request(3);
    ra.Drain();
    Readahead::Stats stats = ra.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.no_frame, 1u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_TRUE(stats.first_error.ok());
  }
  EXPECT_EQ(pool.stats().page_reads, reads);

  // Once a frame is evictable again the same request loads the page, and
  // the foreground fetch that follows is a hit.
  h2->Release();
  auto retried = pool.Prefetch(3);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_TRUE(*retried);
  EXPECT_EQ(pool.num_pinned(), 1u);
  const uint64_t hits = pool.stats().cache_hits;
  auto h3 = pool.Fetch(3);
  ASSERT_TRUE(h3.ok()) << h3.status();
  EXPECT_EQ(h3->page().ReadAt<uint32_t>(0), 103u);
  EXPECT_EQ(pool.stats().cache_hits, hits + 1);
}

TEST_F(ReadaheadTest, DestructorJoinsWorkers) {
  FillFile(32);
  BufferPool pool(&file_, 32);
  {
    Readahead ra(&pool, /*num_workers=*/2);
    for (int i = 0; i < 32; ++i) ra.Request(static_cast<PageId>(i));
    // No drain: the destructor must stop cleanly mid-queue.
  }
  SUCCEED();
}

TEST_F(ReadaheadTest, DrainGuardToleratesNull) {
  { ReadaheadDrainGuard guard(nullptr); }
  SUCCEED();
}

TEST_F(ReadaheadTest, FailedPrefetchesAreCountedAndSurfaceFirstError) {
  FillFile(4);
  FaultInjectingPagedFile fault(&file_);
  BufferPool pool(&fault, 8);
  Readahead ra(&pool, /*num_workers=*/1);

  fault.SetPageFault(1, /*fail_reads=*/true, /*fail_writes=*/false);
  fault.SetPageFault(3, /*fail_reads=*/true, /*fail_writes=*/false);
  for (PageId id = 0; id < 4; ++id) ra.Request(id);
  // Drain must not deadlock on failed fetches: every accepted request
  // completes, successfully or not.
  ra.Drain();
  Readahead::Stats stats = ra.stats();
  EXPECT_EQ(stats.completed, stats.requested);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.first_error.code(), StatusCode::kIOError);
  EXPECT_NE(stats.first_error.message().find("injected"), std::string::npos);

  // A failed prefetch degrades, never poisons: the foreground fetch gets
  // the real bytes once the fault clears.
  fault.ClearPageFaults();
  auto h = pool.Fetch(1);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->page().ReadAt<uint32_t>(0), 101u);
}

TEST_F(ReadaheadTest, ConcurrentRequestersAndForegroundFetches) {
  constexpr int kPages = 128;
  FillFile(kPages);
  // Small enough that the sweep constantly evicts, but with headroom per
  // shard for every transient pin (2 readers + 3 workers).
  BufferPool pool(&file_, 32, /*num_shards=*/4);
  Readahead ra(&pool, /*num_workers=*/3);

  std::atomic<bool> failed{false};
  auto requester = [&](int offset) {
    for (int round = 0; round < 50; ++round) {
      ra.Request(static_cast<PageId>((round * 7 + offset) % kPages));
      if (round % 16 == 0) ra.Drain();
    }
    ra.Drain();
  };
  auto reader = [&](int seed) {
    for (int round = 0; round < 200; ++round) {
      PageId id = static_cast<PageId>((round * 13 + seed) % kPages);
      auto h = pool.Fetch(id);
      if (!h.ok() || h->page().ReadAt<uint32_t>(0) != 100u + id) {
        failed = true;
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(requester, 0);
  threads.emplace_back(requester, 3);
  threads.emplace_back(reader, 1);
  threads.emplace_back(reader, 5);
  for (auto& t : threads) t.join();
  ra.Drain();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(ra.stats().failed, 0u);
}

}  // namespace
}  // namespace secxml
