// Multi-subject batch evaluation throughput: one twig query
// answered for N subjects at once (QueryDriver::EvaluateForSubjects) versus
// the one-query-per-subject serial QueryDriver baseline.
//
// Expected shape: per-subject amortized cost drops along two multiplicative
// axes — subjects drawn from a fixed pool of role profiles collapse into
// visibility equivalence classes (identical codebook columns => identical
// answers, computed once), and the remaining distinct classes share ONE
// structural NoK scan whose accessibility checks are two-word (128-class)
// mask ANDs (src/exec/mask_ops.h). Batches are drawn at random
// from the pool, so small batches repeat profiles the way real request
// streams do and the class_dedup_hits counter measures real collapse.
//
// Hard-asserted properties (non-zero exit on violation, both modes):
//   * every subject's batch answers byte-identical to its per-subject run;
//   * zero access-only I/O on either path;
//   * the wide point (~76 classes, wider than one mask word) runs as one
//     structural scan;
//   * after the all-roles-denied stripe is written and the store is
//     vacuumed into visibility-clustered pages, the mixed 128-subject batch
//     skips pages (pages_skipped > 0) while answering identically;
//   * the shard sweep (a ShardedStore cut into 1/2/4/8 candidate windows
//     under a ShardCoordinator, simulated device read latency) answers
//     byte-identically to the single store, and at 4 windows beats the
//     1-window coordinator by >= 1.5x (gated in full runs, reported in
//     smoke).
//
// argv: [nodes] [--smoke]. --smoke shrinks the document and rep count for
// CI; the speedup itself is reported, not gated, in smoke mode (CI clocks
// are noisy; the committed artifact records the measured value).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/codebook.h"
#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "query/batch_evaluator.h"
#include "query/query_driver.h"
#include "query/xpath_parser.h"
#include "serve/shard_coordinator.h"
#include "serve/sharded_store.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr size_t kSubjectPool = 256;
constexpr size_t kRoleSubjects = 192;  // subjects 0..191 share 12 profiles
constexpr size_t kProfiles = 12;       // subjects 192..255 are all distinct
constexpr double kPr5SpeedupAt64 = 12.9232;  // previous PR's 64-subject value

// Shard sweep: simulated device read latency per physical page fetch and the
// acceptance floor for the 4-shard speedup over the 1-shard coordinator.
constexpr int kShardReadLatencyUs = 250;
constexpr double kShardSpeedupFloor = 1.5;

struct Fixture {
  Document doc;
  DolLabeling labeling;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

// Subjects model users holding one of kProfiles roles: subject s < 192
// draws the ACL stream of profile (s % kProfiles), so same-role subjects
// have identical codebook columns — the dedup structure real multi-tenant
// workloads have and the batch evaluator collapses. Subjects 192..255 each
// draw a distinct stream: mixing them in builds batches wider than the old
// 64-class cap, evaluated as one wide scan.
std::unique_ptr<Fixture> Build(uint32_t nodes) {
  auto f = std::make_unique<Fixture>();
  XMarkOptions xopts;
  xopts.seed = 29;
  xopts.target_nodes = nodes;
  if (!GenerateXMark(xopts, &f->doc).ok()) return nullptr;
  IntervalAccessMap map(static_cast<NodeId>(f->doc.NumNodes()), kSubjectPool);
  for (SubjectId s = 0; s < kSubjectPool; ++s) {
    SyntheticAclOptions aopts;
    aopts.seed = s < kRoleSubjects ? 9000 + s % kProfiles : 9100 + s;
    aopts.accessibility_ratio = 0.6;
    map.SetSubjectIntervals(s, GenerateSyntheticAcl(f->doc, aopts));
  }
  f->labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.buffer_pool_pages = 64;  // smaller than the document: real I/O path
  if (!SecureStore::Build(f->doc, f->labeling, &f->file, sopts, &f->store)
           .ok()) {
    return nullptr;
  }
  return f;
}

/// Minimum-of-reps wall time (see fig7_secure_nok.cc for why the floor):
/// both variants run within every rep, cold pool each measurement.
struct Measured {
  double serial_s = 0;
  double batch_s = 0;
  bool identical = true;
  uint64_t extra_access_io = 0;
  ExecStats batch_exec;
  size_t classes = 0;
  /// Structural scans of the batch: one "batch" operator per chunk.
  size_t chunks = 0;
  std::vector<std::vector<NodeId>> batch_answers;
};

bool RunPoint(SecureStore* store, const PatternTree& pattern,
              const std::vector<SubjectId>& subjects, AccessSemantics sem,
              int reps, Measured* out) {
  QueryDriverOptions dopts;
  dopts.num_threads = 1;
  dopts.semantics = sem;
  QueryDriver driver(store, dopts);
  std::vector<QueryJob> jobs;
  for (SubjectId s : subjects) jobs.push_back({s, pattern});

  std::vector<double> serial_times, batch_times;
  BatchResult serial;
  SubjectBatchResult batch;
  Timer timer;
  for (int r = -1; r < reps; ++r) {  // rep -1 = untimed warm-up
    (void)store->nok()->buffer_pool()->EvictAll();
    timer.Reset();
    serial = driver.Run(jobs);
    double serial_elapsed = timer.ElapsedSeconds();
    if (serial.stats.failed != 0) {
      std::fprintf(stderr, "serial run failed: %s\n",
                   serial.stats.first_error.ToString().c_str());
      return false;
    }
    (void)store->nok()->buffer_pool()->EvictAll();
    timer.Reset();
    auto br = driver.EvaluateForSubjects(pattern, subjects);
    double batch_elapsed = timer.ElapsedSeconds();
    if (!br.ok()) {
      std::fprintf(stderr, "batch run failed: %s\n",
                   br.status().ToString().c_str());
      return false;
    }
    if (r < 0) continue;
    serial_times.push_back(serial_elapsed);
    batch_times.push_back(batch_elapsed);
    batch = std::move(*br);
  }
  out->batch_answers.clear();
  for (size_t i = 0; i < subjects.size(); ++i) {
    if (batch.ResultFor(i).answers != serial.outcomes[i].result.answers) {
      out->identical = false;
    }
    out->batch_answers.push_back(batch.ResultFor(i).answers);
  }
  out->serial_s = *std::min_element(serial_times.begin(), serial_times.end());
  out->batch_s = *std::min_element(batch_times.begin(), batch_times.end());
  out->extra_access_io =
      serial.stats.exec.access_only_fetches + batch.exec.access_only_fetches;
  out->batch_exec = batch.exec;
  out->classes = batch.classes.size();
  out->chunks = 0;
  for (const ClassEvalResult& cls : batch.classes) {
    for (const OperatorStats& op : cls.result.operators) {
      out->chunks += std::strcmp(op.op, "batch") == 0;
    }
  }
  return true;
}

/// Random draw (with repeats across draws) from the role-subject pool.
std::vector<SubjectId> DrawRoleSubjects(Rng* rng, size_t batch_size) {
  std::vector<SubjectId> subjects;
  subjects.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    subjects.push_back(static_cast<SubjectId>(rng->Uniform(kRoleSubjects)));
  }
  return subjects;
}

int Run(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  uint32_t nodes = bench::ScaleArg(argc, argv, smoke ? 8000 : 60000);
  const int reps = smoke ? 2 : 5;

  bench::Banner("Multi-subject batch evaluation: one wide scan, all subjects ("
                + std::to_string(nodes) + "-node XMark, " +
                std::to_string(kSubjectPool) + "-subject pool, " +
                std::to_string(kProfiles) + " role profiles + " +
                std::to_string(kSubjectPool - kRoleSubjects) +
                " distinct)");

  auto f = Build(nodes);
  if (f == nullptr) {
    std::fprintf(stderr, "fixture build failed\n");
    return 1;
  }

  // Workload: two Table 1 queries plus two random twigs grown along real
  // document paths.
  std::vector<std::pair<std::string, PatternTree>> queries;
  for (int qi : {0, 1}) {
    PatternTree p;
    if (!ParseXPath(kTable1Queries[qi], &p).ok()) return 1;
    queries.emplace_back(kTable1Queries[qi], std::move(p));
  }
  for (uint64_t seed : {5u, 9u}) {
    QueryGenOptions qopts;
    qopts.seed = seed;
    qopts.max_nodes = 4;
    PatternTree p = GenerateTwigQuery(f->doc, qopts);
    queries.emplace_back(p.ToString(), std::move(p));
  }

  bool all_identical = true;
  uint64_t extra_access_io = 0;
  uint64_t dedup_hits_total = 0;
  double speedup_at_128 = 0;
  size_t points_at_128 = 0;
  std::vector<bench::Json> points;
  Rng draw_rng(0xD1CE);

  std::printf("%-9s %-6s %7s %6s %8s %11s %11s %9s\n", "semantics", "batch",
              "classes", "dedup", "speedup", "serial ms", "batch ms",
              "identical");
  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    const char* sem_name = sem == AccessSemantics::kBinding ? "binding"
                                                            : "view";
    for (size_t batch_size : {4u, 16u, 64u, 128u}) {
      // Random draws from the role pool: profiles repeat the way request
      // streams do, so classes ~ min(batch, 12) and dedup hits are real.
      std::vector<SubjectId> subjects =
          DrawRoleSubjects(&draw_rng, batch_size);

      double serial_s = 0, batch_s = 0;
      bool identical = true;
      ExecStats exec;
      size_t classes = 0;
      for (const auto& [name, pattern] : queries) {
        Measured m;
        if (!RunPoint(f->store.get(), pattern, subjects, sem, reps, &m)) {
          return 1;
        }
        serial_s += m.serial_s;
        batch_s += m.batch_s;
        identical = identical && m.identical;
        extra_access_io += m.extra_access_io;
        exec += m.batch_exec;
        classes = m.classes;
      }
      all_identical = all_identical && identical;
      dedup_hits_total += exec.class_dedup_hits;
      double speedup = batch_s > 0 ? serial_s / batch_s : 0.0;
      if (batch_size == 128 && sem == AccessSemantics::kBinding) {
        speedup_at_128 += speedup;
        ++points_at_128;
      }
      std::printf("%-9s %-6zu %7zu %6llu %7.2fx %11.2f %11.2f %9s\n",
                  sem_name, batch_size, classes,
                  static_cast<unsigned long long>(exec.class_dedup_hits),
                  speedup, serial_s * 1000, batch_s * 1000,
                  identical ? "yes" : "NO");
      points.push_back(
          bench::Json()
              .Set("semantics", sem_name)
              .Set("batch_size", static_cast<uint64_t>(batch_size))
              .Set("classes", static_cast<uint64_t>(classes))
              .Set("serial_ms", serial_s * 1000)
              .Set("batch_ms", batch_s * 1000)
              .Set("amortized_speedup", speedup)
              .Set("identical", identical)
              .Set("batch_exec", bench::ExecStatsJson(exec)));
    }
  }
  if (points_at_128 > 0) speedup_at_128 /= static_cast<double>(points_at_128);

  // --- Wide point: >64 distinct columns, one scan (no chunking) ----------
  // All 64 distinct-profile subjects plus 64 random role subjects: ~76
  // classes, past one mask word and within the two-word mask.
  std::vector<SubjectId> wide_subjects;
  for (SubjectId s = kRoleSubjects; s < kSubjectPool; ++s) {
    wide_subjects.push_back(s);
  }
  for (SubjectId s : DrawRoleSubjects(&draw_rng, 64)) {
    wide_subjects.push_back(s);
  }
  Measured wide;
  if (!RunPoint(f->store.get(), queries[0].second, wide_subjects,
                AccessSemantics::kBinding, reps, &wide)) {
    return 1;
  }
  all_identical = all_identical && wide.identical;
  extra_access_io += wide.extra_access_io;
  dedup_hits_total += wide.batch_exec.class_dedup_hits;
  const double wide_speedup =
      wide.batch_s > 0 ? wide.serial_s / wide.batch_s : 0.0;
  const bool wide_is_one_scan = wide.classes > 64 && wide.chunks == 1;
  std::printf("\nwide point: %zu subjects, %zu classes (one wide scan: %s), "
              "%.2fx amortized, identical %s\n",
              wide_subjects.size(), wide.classes,
              wide_is_one_scan ? "yes" : "NO", wide_speedup,
              wide.identical ? "yes" : "NO");

  // --- Shard sweep: scatter-gather serving over 1/2/4/8 windows ----------
  // One store over a data file with simulated device read latency, cut into
  // N candidate windows per request; each scatter thread scans one window
  // through the store's one buffer pool, and the threads overlap their
  // physical reads, so batch throughput scales with window count even on
  // one core. The pool holds 128 pages at every window count, so the sweep
  // isolates read overlap, not pool size. Runs before the vacuum point
  // below mutates the fixture: the store must mirror the single store the
  // reference answers come from.
  //
  // The scan is `//*`: a tag query's candidates cluster inside one XMark
  // section (regions, people, ...) and with document-order range partitioning
  // that lands nearly all reads in one window; the wildcard's candidates tile
  // the whole node space, so every window holds an equal slice of the
  // physical reads — the serving shape the windows exist for.
  PatternTree shard_query;
  if (!ParseXPath("//*", &shard_query).ok()) return 1;
  const std::vector<SubjectId> shard_subjects =
      DrawRoleSubjects(&draw_rng, 128);
  std::vector<std::vector<NodeId>> shard_ref;
  {
    QueryDriverOptions dopts;
    dopts.num_threads = 1;
    dopts.semantics = AccessSemantics::kBinding;
    QueryDriver ref_driver(f->store.get(), dopts);
    auto ref = ref_driver.EvaluateForSubjects(shard_query, shard_subjects);
    if (!ref.ok()) {
      std::fprintf(stderr, "shard reference run failed: %s\n",
                   ref.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < shard_subjects.size(); ++i) {
      shard_ref.push_back(ref->ResultFor(i).answers);
    }
  }
  bool shard_identical = true;
  double shard_one_s = 0;
  double shard_speedup_at_4 = 0;
  std::vector<bench::Json> shard_points;
  std::printf("\nshard sweep: //* x 128-subject batch (binding), %dus "
              "simulated read latency, constant total cache\n",
              kShardReadLatencyUs);
  std::printf("%-7s %8s %11s %9s %11s\n", "shards", "classes", "batch ms",
              "speedup", "identical");
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ShardFileSet files(shards,
                       std::chrono::microseconds(kShardReadLatencyUs));
    ShardedStoreOptions shopts;
    shopts.num_shards = shards;
    shopts.nok.buffer_pool_pages = 128 / shards;  // per window
    shopts.attach_wal = false;
    std::unique_ptr<ShardedStore> sharded;
    if (!ShardedStore::Build(f->doc, f->labeling, shopts, files.provider(),
                             &sharded)
             .ok()) {
      std::fprintf(stderr, "shard build failed at %zu shards\n", shards);
      return 1;
    }
    ShardCoordinatorOptions copts;
    copts.semantics = AccessSemantics::kBinding;
    ShardCoordinator coord(sharded.get(), copts);
    double best_s = 0;
    size_t classes = 0;
    bool identical = true;
    Timer timer;
    for (int r = -1; r < reps; ++r) {  // rep -1 = untimed warm-up
      (void)sharded->store()->nok()->buffer_pool()->EvictAll();
      timer.Reset();
      auto br = coord.EvaluateForSubjects(shard_query, shard_subjects);
      double elapsed = timer.ElapsedSeconds();
      if (!br.ok()) {
        std::fprintf(stderr, "shard batch failed at %zu shards: %s\n",
                     shards, br.status().ToString().c_str());
        return 1;
      }
      if (r < 0) continue;
      if (best_s == 0 || elapsed < best_s) best_s = elapsed;
      classes = br->classes.size();
      extra_access_io += br->exec.access_only_fetches;
      for (size_t i = 0; i < shard_subjects.size(); ++i) {
        if (br->ResultFor(i).answers != shard_ref[i]) identical = false;
      }
    }
    shard_identical = shard_identical && identical;
    if (shards == 1) shard_one_s = best_s;
    const double speedup = best_s > 0 ? shard_one_s / best_s : 0.0;
    if (shards == 4) shard_speedup_at_4 = speedup;
    std::printf("%-7zu %8zu %11.2f %8.2fx %11s\n", shards, classes,
                best_s * 1000, speedup, identical ? "yes" : "NO");
    shard_points.push_back(
        bench::Json()
            .Set("shards", static_cast<uint64_t>(shards))
            .Set("classes", static_cast<uint64_t>(classes))
            .Set("batch_ms", best_s * 1000)
            .Set("speedup_vs_one_shard", speedup)
            .Set("identical", identical));
  }

  // --- Vacuum point: fragmented denied stripe, clustered, skipped --------
  // A contiguous third of the document is denied to every subject (the
  // "classified subtree" shape), then fragmented the way incremental
  // maintenance fragments real stores: small per-subject grant windows
  // punched into the stripe embed code transitions into its pages, setting
  // their change bits — the per-class page verdict turns indecisive and the
  // batch scan must load them. The visibility-clustered vacuum re-cuts the
  // layout so the long denied runs between windows get change-bit-clear
  // pages again; those are dead for every class in the batch and the wide
  // scan skips them wholesale.
  const NodeId n = f->store->num_nodes();
  for (SubjectId s = 0; s < kSubjectPool; ++s) {
    if (!f->store->SetRangeAccess(n / 3, 2 * n / 3, s, false).ok()) {
      std::fprintf(stderr, "stripe write failed\n");
      return 1;
    }
  }
  const NodeId stripe_len = 2 * n / 3 - n / 3;
  constexpr NodeId kIslands = 32;
  for (NodeId j = 0; j < kIslands; ++j) {
    const NodeId w = n / 3 + 3 + j * (stripe_len / kIslands);
    const SubjectId s = static_cast<SubjectId>(
        draw_rng.Uniform(kRoleSubjects));
    if (!f->store->SetRangeAccess(w, std::min<NodeId>(w + 5, 2 * n / 3), s,
                                  true).ok()) {
      std::fprintf(stderr, "island write failed\n");
      return 1;
    }
  }
  std::vector<SubjectId> mixed = DrawRoleSubjects(&draw_rng, 128);
  Measured pre_vac;
  if (!RunPoint(f->store.get(), queries[0].second, mixed,
                AccessSemantics::kBinding, reps, &pre_vac)) {
    return 1;
  }
  SecureStore::VacuumOptions vopts;
  vopts.checkpoint_after = false;  // no WAL attached to this store
  SecureStore::VacuumStats vstats;
  if (!f->store->Vacuum(vopts, &vstats).ok()) {
    std::fprintf(stderr, "vacuum failed\n");
    return 1;
  }
  Measured post_vac;
  if (!RunPoint(f->store.get(), queries[0].second, mixed,
                AccessSemantics::kBinding, reps, &post_vac)) {
    return 1;
  }
  all_identical = all_identical && pre_vac.identical && post_vac.identical;
  extra_access_io += pre_vac.extra_access_io + post_vac.extra_access_io;
  const bool vacuum_identical =
      pre_vac.batch_answers == post_vac.batch_answers;
  const uint64_t pre_skipped = pre_vac.batch_exec.pages_skipped;
  const uint64_t post_skipped = post_vac.batch_exec.pages_skipped;
  std::printf("vacuum point: pages %zu -> %zu (homogeneous %zu -> %zu), "
              "batch pages_skipped %llu -> %llu, answers %s\n",
              vstats.pages_before, vstats.pages_after,
              vstats.homogeneous_pages_before, vstats.homogeneous_pages_after,
              static_cast<unsigned long long>(pre_skipped),
              static_cast<unsigned long long>(post_skipped),
              vacuum_identical ? "identical across vacuum" : "DIVERGED");

  std::printf("\nsummary: %.2fx amortized speedup at 128 subjects (binding, "
              "PR-5 baseline %.4fx at 64), answers %s, extra access I/O "
              "%llu, dedup hits %llu\n",
              speedup_at_128, kPr5SpeedupAt64,
              all_identical ? "byte-identical to per-subject" : "DIVERGED",
              static_cast<unsigned long long>(extra_access_io),
              static_cast<unsigned long long>(dedup_hits_total));
  if (speedup_at_128 < kPr5SpeedupAt64) {
    std::printf("WARNING: 128-subject speedup below the PR-5 64-subject "
                "baseline\n");
  }

  bench::WriteBenchJson(
      "multi_subject_throughput",
      bench::Json()
          .Set("bench", "multi_subject_throughput")
          .Set("nodes", nodes)
          .Set("repetitions", reps)
          .Set("subject_pool", static_cast<uint64_t>(kSubjectPool))
          .Set("role_profiles", static_cast<uint64_t>(kProfiles))
          .Set("distinct_profile_subjects",
               static_cast<uint64_t>(kSubjectPool - kRoleSubjects))
          .Set("all_identical", all_identical)
          .Set("extra_access_io", extra_access_io)
          .Set("class_dedup_hits_total", dedup_hits_total)
          .Set("speedup_at_128_subjects", speedup_at_128)
          .Set("pr5_speedup_at_64_subjects", kPr5SpeedupAt64)
          .Set("shard_query", "//*")
          .Set("shard_read_latency_us",
               static_cast<uint64_t>(kShardReadLatencyUs))
          .Set("shard_speedup_at_4", shard_speedup_at_4)
          .Set("shard_identical", shard_identical)
          .Set("shard_sweep", shard_points)
          .Set("wide_point",
               bench::Json()
                   .Set("subjects",
                        static_cast<uint64_t>(wide_subjects.size()))
                   .Set("classes", static_cast<uint64_t>(wide.classes))
                   .Set("one_wide_scan", wide_is_one_scan)
                   .Set("amortized_speedup", wide_speedup)
                   .Set("identical", wide.identical))
          .Set("vacuum_point",
               bench::Json()
                   .Set("subjects", static_cast<uint64_t>(mixed.size()))
                   .Set("pages_before",
                        static_cast<uint64_t>(vstats.pages_before))
                   .Set("pages_after",
                        static_cast<uint64_t>(vstats.pages_after))
                   .Set("homogeneous_pages_before",
                        static_cast<uint64_t>(vstats.homogeneous_pages_before))
                   .Set("homogeneous_pages_after",
                        static_cast<uint64_t>(vstats.homogeneous_pages_after))
                   .Set("batch_pages_skipped_pre_vacuum", pre_skipped)
                   .Set("batch_pages_skipped_post_vacuum", post_skipped)
                   .Set("identical_across_vacuum", vacuum_identical))
          .Set("sweep", points));

  int exit_code = 0;
  if (!all_identical) exit_code = 1;
  if (extra_access_io != 0) exit_code = 1;
  if (!vacuum_identical) exit_code = 1;
  if (post_skipped == 0) {
    std::printf("FAIL: post-vacuum mixed batch skipped no pages\n");
    exit_code = 1;
  }
  if (dedup_hits_total == 0) {
    std::printf("FAIL: class_dedup_hits never moved across the sweep\n");
    exit_code = 1;
  }
  if (!wide_is_one_scan) {
    std::printf("FAIL: wide point did not run >64 classes as one scan\n");
    exit_code = 1;
  }
  if (!smoke && speedup_at_128 < kPr5SpeedupAt64) exit_code = 1;
  if (!shard_identical) {
    std::printf("FAIL: shard sweep answers diverged from the single store\n");
    exit_code = 1;
  }
  if (!smoke && shard_speedup_at_4 < kShardSpeedupFloor) {
    std::printf("FAIL: 4-shard speedup %.2fx below the %.2fx floor\n",
                shard_speedup_at_4, kShardSpeedupFloor);
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace
}  // namespace secxml

int main(int argc, char** argv) { return secxml::Run(argc, argv); }
