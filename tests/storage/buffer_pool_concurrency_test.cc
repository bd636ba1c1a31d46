// Concurrency stress tests for the sharded BufferPool: N threads doing
// mixed Fetch/Allocate/MarkDirty/EvictAll against a pool smaller than the
// working set. Invariants checked:
//  - no lost dirty writes (every increment a thread applied under a pin is
//    visible in the final page image, i.e. the contents match what a
//    single-threaded replay of the same per-thread operation counts gives),
//  - pin-count accounting (nothing stays pinned after all handles drop),
//  - hit/read accounting (every successful fetch is exactly one of the two),
//  - graceful exhaustion (all-pinned shards fail the fetch, never deadlock),
//  - physical reads outside the shard latch (a slow miss never delays other
//    fetches of its shard; concurrent fetches of one cold page share one
//    read; a failed read wakes its waiters and leaks no frame).
//
// Run under SECXML_SANITIZE=thread these double as data-race detectors for
// the latch protocol.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/fault_file.h"
#include "storage/paged_file.h"

namespace secxml {
namespace {

// Each thread owns one uint64 slot in every page; an increment is a
// read-modify-write done while the page is pinned, so pages may travel
// through eviction/re-fetch between increments but never during one.
constexpr size_t kMaxThreads = 8;

uint64_t ReadSlot(const Page& page, size_t thread) {
  return page.ReadAt<uint64_t>(8 * thread);
}

void BumpSlot(Page* page, size_t thread) {
  page->WriteAt<uint64_t>(8 * thread, ReadSlot(*page, thread) + 1);
}

TEST(BufferPoolConcurrencyTest, MixedStressNoLostDirtyWrites) {
  constexpr size_t kThreads = 4;
  constexpr PageId kInitialPages = 48;
  constexpr int kItersPerThread = 4000;

  MemPagedFile file;
  for (PageId i = 0; i < kInitialPages; ++i) {
    auto r = file.AllocatePage();
    ASSERT_TRUE(r.ok());
  }
  // 12 frames over 48+ pages: constant eviction pressure; 4 explicit shards
  // so the latch protocol (not a single global lock) is what is exercised.
  BufferPool pool(&file, 12, 4);
  ASSERT_EQ(pool.num_shards(), 4u);

  // counts[t][page] = increments thread t applied to page's slot t.
  std::vector<std::map<PageId, uint64_t>> counts(kThreads);
  std::atomic<bool> failed{false};

  auto body = [&](size_t t) {
    Rng rng(977 + t);
    for (int i = 0; i < kItersPerThread && !failed.load(); ++i) {
      uint64_t op = rng.Uniform(100);
      if (op < 2) {
        // Whole-pool eviction concurrent with everyone else's fetches.
        Status st = pool.EvictAll();
        if (!st.ok()) {
          ADD_FAILURE() << "EvictAll: " << st.ToString();
          failed = true;
        }
      } else if (op < 5) {
        // Grow the working set.
        auto h = pool.Allocate();
        if (!h.ok()) {
          // Shard exhaustion (every frame of the new page's shard pinned at
          // this instant) is legal under pressure; anything else is a bug.
          if (h.status().code() != StatusCode::kIOError) {
            ADD_FAILURE() << "Allocate: " << h.status().ToString();
            failed = true;
          }
          continue;
        }
        BumpSlot(h->mutable_page(), t);
        h->MarkDirty();
        counts[t][h->page_id()] += 1;
      } else {
        PageId id = static_cast<PageId>(rng.Uniform(kInitialPages));
        auto h = pool.Fetch(id);
        if (!h.ok()) {
          // Shard exhaustion is legal under pressure; nothing else is.
          if (h.status().code() != StatusCode::kIOError) {
            ADD_FAILURE() << "Fetch: " << h.status().ToString();
            failed = true;
          }
          continue;
        }
        if (op < 60) {
          BumpSlot(h->mutable_page(), t);
          h->MarkDirty();
          counts[t][id] += 1;
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (std::thread& th : threads) th.join();
  ASSERT_FALSE(failed.load());

  // Quiescent invariants.
  EXPECT_EQ(pool.num_pinned(), 0u);
  ASSERT_TRUE(pool.FlushAll().ok());

  // Single-threaded replay: each page slot must hold exactly the number of
  // increments its owning thread applied — a lost dirty write (eviction
  // dropping a MarkDirty, or a stale frame reused without writeback) shows
  // up as a smaller value.
  for (size_t t = 0; t < kThreads; ++t) {
    for (const auto& [page_id, expected] : counts[t]) {
      Page p;
      ASSERT_TRUE(file.ReadPage(page_id, &p).ok());
      EXPECT_EQ(ReadSlot(p, t), expected)
          << "lost write: thread " << t << " page " << page_id;
    }
  }
}

TEST(BufferPoolConcurrencyTest, ConcurrentFetchSamePageCountsOnce) {
  constexpr size_t kThreads = 4;
  constexpr int kFetches = 2000;
  MemPagedFile file;
  ASSERT_TRUE(file.AllocatePage().ok());
  BufferPool pool(&file, 8, 2);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool]() {
      for (int i = 0; i < kFetches; ++i) {
        auto h = pool.Fetch(0);
        ASSERT_TRUE(h.ok());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // One physical read, everything else hits; the sum is exact (no torn or
  // dropped counter increments).
  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().cache_hits, kThreads * kFetches - 1u);
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST(BufferPoolConcurrencyTest, PinInvariantsAcrossThreads) {
  MemPagedFile file;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(file.AllocatePage().ok());
  BufferPool pool(&file, 4, 1);

  // Handles can be released on a different thread than they were pinned on.
  auto h = pool.Fetch(2);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(pool.num_pinned(), 1u);
  PageHandle moved = std::move(*h);
  std::thread releaser([&moved]() { moved.Release(); });
  releaser.join();
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST(BufferPoolConcurrencyTest, AllPinnedShardFailsWithoutDeadlock) {
  constexpr size_t kThreads = 6;
  MemPagedFile file;
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(file.AllocatePage().ok());
  BufferPool pool(&file, 4, 1);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 500; ++i) {
        // Hold two pins at once to create transient exhaustion.
        auto a = pool.Fetch(static_cast<PageId>((t + i) % 16));
        auto b = pool.Fetch(static_cast<PageId>((t * 3 + i) % 16));
        if (!a.ok()) failures.fetch_add(1);
        if (!b.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Exhaustion may or may not happen depending on scheduling; the invariant
  // is that we got here (no deadlock) with nothing left pinned.
  EXPECT_EQ(pool.num_pinned(), 0u);
  EXPECT_EQ(pool.num_cached(), std::min<size_t>(4, pool.capacity()));
}

// Forwards to `base`, raising `entered` once a read of `watched` has begun
// (so a test can act while that read is in flight).
class ReadProbeFile final : public PagedFile {
 public:
  ReadProbeFile(PagedFile* base, PageId watched)
      : base_(base), watched_(watched) {}

  PageId NumPages() const override { return base_->NumPages(); }
  Result<PageId> AllocatePage() override { return base_->AllocatePage(); }
  Status ReadPage(PageId id, Page* out) override {
    if (id == watched_) entered.store(true, std::memory_order_release);
    return base_->ReadPage(id, out);
  }
  Status WritePage(PageId id, const Page& page) override {
    return base_->WritePage(id, page);
  }
  Status Sync() override { return base_->Sync(); }

  std::atomic<bool> entered{false};

 private:
  PagedFile* base_;
  PageId watched_;
};

// Allocates `n` pages in `file`, page i holding the value 1000 + i at
// offset 0.
void FillPages(MemPagedFile* file, PageId n) {
  for (PageId i = 0; i < n; ++i) {
    auto id = file->AllocatePage();
    ASSERT_TRUE(id.ok());
    Page p;
    p.WriteAt<uint64_t>(0, 1000 + *id);
    ASSERT_TRUE(file->WritePage(*id, p).ok());
  }
}

TEST(BufferPoolConcurrencyTest, SlowMissDoesNotBlockHitsInItsShard) {
  constexpr auto kDelay = std::chrono::milliseconds(800);
  MemPagedFile base;
  FillPages(&base, 2);
  LatencyPagedFile slow(&base, kDelay);
  ReadProbeFile probe(&slow, /*watched=*/1);
  // One latch shard: pages 0 and 1 share it.
  BufferPool pool(&probe, 4, 1);
  ASSERT_EQ(pool.num_shards(), 1u);
  ASSERT_TRUE(pool.Fetch(0).ok());  // page 0 resident (one slow read)

  std::thread missing([&] {
    auto h = pool.Fetch(1);
    ASSERT_TRUE(h.ok()) << h.status();
    EXPECT_EQ(h->page().ReadAt<uint64_t>(0), 1001u);
  });
  while (!probe.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Page 1's read is in flight for ~kDelay; a hit in the same shard must
  // not wait it out.
  const auto start = std::chrono::steady_clock::now();
  auto hit = pool.Fetch(0);
  const auto waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const uint64_t value = hit.ok() ? hit->page().ReadAt<uint64_t>(0) : 0;
  if (hit.ok()) hit->Release();
  missing.join();
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(value, 1000u);
  EXPECT_LT(waited_ms, kDelay.count() / 2)
      << "the hit waited on another page's physical read";
  EXPECT_EQ(pool.stats().page_reads, 2u);
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST(BufferPoolConcurrencyTest, MissWaitsOutAnInFlightPrefetch) {
  // Two frames: one held by a handle, one pinned by a prefetch whose read
  // is in flight. A miss must wait for the prefetched frame to turn
  // evictable rather than fail as if every frame were held.
  MemPagedFile base;
  FillPages(&base, 3);
  LatencyPagedFile slow(&base, std::chrono::milliseconds(100));
  ReadProbeFile probe(&slow, /*watched=*/0);
  BufferPool pool(&probe, 2, 1);
  auto held = pool.Fetch(1);
  ASSERT_TRUE(held.ok()) << held.status();

  std::thread prefetcher([&] {
    auto r = pool.Prefetch(0);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(*r);
  });
  while (!probe.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  auto h = pool.Fetch(2);
  prefetcher.join();
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(h->page().ReadAt<uint64_t>(0), 1002u);
  EXPECT_EQ(pool.stats().page_reads, 3u);
}

TEST(BufferPoolConcurrencyTest, ConcurrentColdFetchesShareOneRead) {
  constexpr size_t kThreads = 6;
  MemPagedFile base;
  FillPages(&base, 4);
  LatencyPagedFile slow(&base, std::chrono::milliseconds(50));
  BufferPool pool(&slow, 4, 1);

  std::atomic<bool> go{false};
  std::vector<uint64_t> seen(kThreads, 0);
  std::vector<char> missed(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      bool was_miss = false;
      auto h = pool.Fetch(2, &was_miss);
      ASSERT_TRUE(h.ok()) << h.status();
      seen[t] = h->page().ReadAt<uint64_t>(0);
      missed[t] = was_miss ? 1 : 0;
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().cache_hits, kThreads - 1);
  size_t misses = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], 1002u) << "thread " << t;
    misses += static_cast<size_t>(missed[t]);
  }
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST(BufferPoolConcurrencyTest, FailedReadWakesWaitersAndLeaksNoFrame) {
  constexpr size_t kThreads = 6;
  constexpr size_t kCapacity = 4;
  MemPagedFile base;
  FillPages(&base, kCapacity + 1);
  FaultInjectingPagedFile faulty(&base);
  // The delay sits above the fault, so a failing read is slow too and the
  // other fetchers queue up on the loading frame.
  LatencyPagedFile slow(&faulty, std::chrono::milliseconds(30));
  BufferPool pool(&slow, kCapacity, 1);

  auto storm = [&](std::vector<Status>* statuses,
                   std::vector<uint64_t>* seen) {
    std::atomic<bool> go{false};
    statuses->assign(kThreads, Status::OK());
    seen->assign(kThreads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        auto h = pool.Fetch(3);
        if (h.ok()) {
          (*seen)[t] = h->page().ReadAt<uint64_t>(0);
        } else {
          (*statuses)[t] = h.status();
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();
  };

  // A persistent fault: every fetcher, waiter or loader, gets the error.
  std::vector<Status> statuses;
  std::vector<uint64_t> seen;
  faulty.SetPageFault(3, /*fail_reads=*/true, /*fail_writes=*/false);
  storm(&statuses, &seen);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(statuses[t].code(), StatusCode::kIOError) << "thread " << t;
  }
  EXPECT_EQ(pool.num_pinned(), 0u);
  EXPECT_EQ(pool.num_cached(), 0u);

  // One failing read, then the fault is gone: exactly that read's fetcher
  // fails; its waiters retry and every other fetcher sees the page.
  faulty.ClearPageFaults();
  const uint64_t injected_before = faulty.stats().injected_reads;
  faulty.FailNext(FaultOp::kRead, 1);
  storm(&statuses, &seen);
  size_t failures = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    if (statuses[t].ok()) {
      EXPECT_EQ(seen[t], 1003u) << "thread " << t;
    } else {
      EXPECT_EQ(statuses[t].code(), StatusCode::kIOError) << "thread " << t;
      ++failures;
    }
  }
  EXPECT_EQ(faulty.stats().injected_reads - injected_before, 1u);
  EXPECT_EQ(failures, 1u);
  EXPECT_EQ(pool.num_pinned(), 0u);

  // No frame leaked or was freed twice: the pool holds exactly capacity()
  // distinct pages at once, each in its own frame, and no more.
  std::vector<PageHandle> held;
  for (PageId id = 0; id < kCapacity; ++id) {
    auto h = pool.Fetch(id);
    ASSERT_TRUE(h.ok()) << "page " << id << ": " << h.status();
    held.push_back(std::move(*h));
  }
  for (PageId id = 0; id < kCapacity; ++id) {
    EXPECT_EQ(held[id].page().ReadAt<uint64_t>(0), 1000u + id);
  }
  auto extra = pool.Fetch(kCapacity);
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kIOError);
  EXPECT_EQ(pool.num_pinned(), kCapacity);
}

}  // namespace
}  // namespace secxml
