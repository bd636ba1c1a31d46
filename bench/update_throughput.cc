// Online-update throughput under the epoch-snapshot layer (DESIGN.md §11):
//
//  1. WAL-logged update throughput (updates/s) for subtree ACL toggles,
//     single-writer, no concurrent readers.
//  2. Reader latency (p50/p95) while a writer streams the same update storm
//     concurrently, against the idle-reader baseline — the price queries
//     pay for snapshot isolation instead of a stop-the-world lock.
//
// Commits maintain the per-subject codebook-column cache incrementally
// (ACL updates only append codebook entries, so each cached column is
// extended); the bench asserts that path ran (columns_patched > 0).
//
// The zero-extra-I/O invariant (`extra_access_io == 0`) is hard-asserted
// across every reader query, storm or no storm. argv: [nodes] [--smoke];
// --smoke shrinks the scale for CI (wired as the update_throughput_smoke
// ctest under -L perf).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "query/evaluator.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr size_t kSubjects = 8;
constexpr int kReaderThreads = 2;

struct Fixture {
  Document doc;
  MemPagedFile data;
  MemPagedFile wal;
  std::unique_ptr<SecureStore> store;
  std::vector<NodeId> toggle_roots;
  std::vector<PatternTree> queries;
};

std::unique_ptr<Fixture> Build(uint32_t nodes) {
  auto f = std::make_unique<Fixture>();
  XMarkOptions xopts;
  xopts.seed = 20260808;
  xopts.target_nodes = nodes;
  if (!GenerateXMark(xopts, &f->doc).ok()) return nullptr;
  SyntheticAclOptions aopts;
  aopts.seed = 31337;
  aopts.accessibility_ratio = 0.65;
  IntervalAccessMap map = GenerateSyntheticAclMap(f->doc, kSubjects, aopts);
  DolLabeling labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = 64;
  if (!SecureStore::BuildWithWal(f->doc, labeling, &f->data, &f->wal, sopts,
                                 &f->store)
           .ok()) {
    return nullptr;
  }
  // Mid-size subtrees scattered through the document: each toggle touches a
  // handful of consecutive pages (the Proposition 1 regime).
  for (NodeId x = 1; x < f->doc.NumNodes(); ++x) {
    if (f->doc.SubtreeSize(x) >= 40 && f->doc.SubtreeSize(x) <= 200) {
      f->toggle_roots.push_back(x);
      x += f->doc.SubtreeSize(x);  // disjoint
    }
  }
  for (uint64_t seed : {3u, 11u, 27u}) {
    QueryGenOptions qopts;
    qopts.seed = seed;
    qopts.max_nodes = 3;
    f->queries.push_back(GenerateTwigQuery(f->doc, qopts));
  }
  return f;
}

Status ApplyToggle(Fixture* f, uint64_t i) {
  NodeId root = f->toggle_roots[i % f->toggle_roots.size()];
  return f->store->SetSubtreeAccess(
      root, static_cast<SubjectId>(i % kSubjects), i % 2 == 0);
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  return (*v)[idx];
}

int Run(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  uint32_t nodes = bench::ScaleArg(argc, argv, smoke ? 6000 : 40000);
  const int updates = smoke ? 200 : 1500;
  const int reader_iters = smoke ? 60 : 400;

  bench::Banner("Online updates: epoch snapshots, WAL, incremental column "
                "maintenance (" + std::to_string(nodes) + "-node XMark, " +
                std::to_string(kSubjects) + " subjects)");

  auto f = Build(nodes);
  if (f == nullptr || f->toggle_roots.empty()) {
    std::fprintf(stderr, "fixture build failed\n");
    return 1;
  }

  std::atomic<uint64_t> extra_access_io{0};

  // --- 1. Update throughput, no readers -------------------------------
  double updates_per_sec = 0;
  {
    Timer timer;
    for (int i = 0; i < updates; ++i) {
      if (!ApplyToggle(f.get(), static_cast<uint64_t>(i)).ok()) return 1;
    }
    double s = timer.ElapsedSeconds();
    updates_per_sec = s > 0 ? updates / s : 0;
    std::printf("\nupdate throughput: %d WAL-logged subtree toggles in "
                "%.2f ms  ->  %.0f updates/s\n",
                updates, s * 1000, updates_per_sec);
  }

  // --- 2. Reader latency, idle vs under an update storm ----------------
  auto reader_pass = [&](std::atomic<bool>* stop,
                         std::vector<double>* latencies_ms) -> bool {
    QueryEvaluator eval(f->store.get());
    Rng rng(991);
    for (int i = 0; i < reader_iters; ++i) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
      EvalOptions opts;
      opts.semantics =
          i % 2 == 0 ? AccessSemantics::kBinding : AccessSemantics::kView;
      opts.subject = static_cast<SubjectId>(rng.Uniform(kSubjects));
      Timer t;
      auto r = eval.Evaluate(f->queries[i % f->queries.size()], opts);
      if (!r.ok()) return false;
      latencies_ms->push_back(t.ElapsedSeconds() * 1000);
      extra_access_io.fetch_add(r->exec.access_only_fetches,
                                std::memory_order_relaxed);
    }
    return true;
  };

  std::vector<double> idle_lat;
  if (!reader_pass(nullptr, &idle_lat)) return 1;
  double idle_p50 = Percentile(&idle_lat, 0.5);
  double idle_p95 = Percentile(&idle_lat, 0.95);

  std::vector<std::vector<double>> storm_lat(kReaderThreads);
  double storm_updates_per_sec = 0;
  {
    std::atomic<bool> stop{false};
    std::atomic<bool> reader_ok{true};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaderThreads; ++t) {
      readers.emplace_back([&, t] {
        if (!reader_pass(&stop, &storm_lat[static_cast<size_t>(t)])) {
          reader_ok.store(false);
        }
      });
    }
    Timer timer;
    int storm_updates = 0;
    for (; storm_updates < updates; ++storm_updates) {
      if (!ApplyToggle(f.get(), static_cast<uint64_t>(storm_updates)).ok()) {
        stop.store(true);
        for (auto& th : readers) th.join();
        return 1;
      }
    }
    double s = timer.ElapsedSeconds();
    stop.store(true);
    for (auto& th : readers) th.join();
    if (!reader_ok.load()) return 1;
    storm_updates_per_sec = s > 0 ? storm_updates / s : 0;
  }
  std::vector<double> storm_all;
  for (auto& v : storm_lat) {
    storm_all.insert(storm_all.end(), v.begin(), v.end());
  }
  double storm_p50 = Percentile(&storm_all, 0.5);
  double storm_p95 = Percentile(&storm_all, 0.95);
  std::printf("reader latency   idle: p50 %.3f ms  p95 %.3f ms  (%zu queries)"
              "\n          under storm: p50 %.3f ms  p95 %.3f ms  (%zu "
              "queries, writer at %.0f updates/s)\n",
              idle_p50, idle_p95, idle_lat.size(), storm_p50, storm_p95,
              storm_all.size(), storm_updates_per_sec);

  SecureStore::UpdateStats us = f->store->update_stats();
  std::printf("update stats: %llu applied, %llu epochs, %llu columns "
              "patched\n",
              static_cast<unsigned long long>(us.updates_applied),
              static_cast<unsigned long long>(us.epochs_advanced),
              static_cast<unsigned long long>(us.columns_patched));
  uint64_t extra_io = extra_access_io.load();
  std::printf("extra access I/O across all reader queries: %llu\n",
              static_cast<unsigned long long>(extra_io));

  bench::WriteBenchJson(
      "update_throughput",
      bench::Json()
          .Set("bench", "update_throughput")
          .Set("nodes", nodes)
          .Set("subjects", static_cast<uint64_t>(kSubjects))
          .Set("updates", static_cast<uint64_t>(updates))
          .Set("updates_per_sec", updates_per_sec)
          .Set("updates_per_sec_under_readers", storm_updates_per_sec)
          .Set("reader_p50_ms_idle", idle_p50)
          .Set("reader_p95_ms_idle", idle_p95)
          .Set("reader_p50_ms_under_storm", storm_p50)
          .Set("reader_p95_ms_under_storm", storm_p95)
          .Set("columns_patched", us.columns_patched)
          .Set("wal_records_appended", f->store->wal()->stats().records_appended)
          .Set("extra_access_io", extra_io)
          .Set("active_pins_at_exit",
               static_cast<uint64_t>(f->store->epochs()->active_pins())));

  // Hard gates: zero extra access I/O, zero leaked pins, and the
  // incremental column maintenance must actually have run.
  int exit_code = 0;
  if (extra_io != 0) {
    std::fprintf(stderr, "FAIL: extra_access_io = %llu (must be 0)\n",
                 static_cast<unsigned long long>(extra_io));
    exit_code = 1;
  }
  if (f->store->epochs()->active_pins() != 0) {
    std::fprintf(stderr, "FAIL: leaked epoch pins\n");
    exit_code = 1;
  }
  if (us.columns_patched == 0) {
    std::fprintf(stderr, "FAIL: incremental column maintenance never ran\n");
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace
}  // namespace secxml

int main(int argc, char** argv) { return secxml::Run(argc, argv); }
