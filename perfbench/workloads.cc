// The four benchmark workloads. Each one sets up its store kSetups times
// from the generated inputs (timing every phase), drives the last store
// through the engine's public entry points for the run's seconds, then
// re-answers a seeded sample of its requests through an independent public
// path. Spans wrap the benchmark's calls into each layer; counts come from
// the layers' own stats surfaces.

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "query/batch_evaluator.h"
#include "query/evaluator.h"
#include "query/query_cache.h"
#include "query/query_driver.h"
#include "query/xpath_parser.h"
#include "report.h"
#include "serve/shard_coordinator.h"
#include "serve/sharded_store.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/paged_file.h"
#include "trace.h"
#include "xml/xml_parser.h"

namespace secxml::perfbench {
namespace {

// Sizes (README.md explains each choice).
constexpr size_t kSmallPoolPages = 64;    // ~1/16 of a 200k-node store
constexpr size_t kWholePoolPages = 4096;  // holds the whole store
constexpr size_t kRoleBatch = 128;
constexpr size_t kShardBatch = 32;
constexpr size_t kShards = 4;
constexpr size_t kShardPoolPages = 64;  // per shard; 256 pages in total
constexpr int kShardReadLatencyUs = 100;
constexpr uint64_t kReadsPerUpdate = 20;  // reader requests per ACL update
constexpr size_t kWriterTargets = 16;
constexpr NodeId kWriterRangeNodes = 64;
constexpr size_t kStreamLength = 4096;

// Per-request counts are taken over this many leading requests, which every
// run completes, so on the single-client read-only workloads they repeat
// exactly for a seed whatever the machine's speed.
constexpr uint64_t kSinglePrefix = 400;
constexpr uint64_t kBatchPrefix = 40;

// Answer checks: about one request in kCheckOneIn is re-answered, at most
// kMaxChecks per run (and kCheckSubjects subjects of a checked batch
// against the per-subject evaluator).
constexpr uint64_t kCheckOneIn = 16;
constexpr size_t kMaxChecks = 48;
constexpr size_t kMaxBatchChecks = 6;
constexpr size_t kCheckSubjects = 16;

constexpr AccessSemantics kBothSemantics[] = {AccessSemantics::kBinding,
                                              AccessSemantics::kView};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double PerUnit(double total, double units) {
  return units > 0 ? total / units : 0.0;
}

double PerUnit(uint64_t total, uint64_t units) {
  return PerUnit(static_cast<double>(total), static_cast<double>(units));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// In a traced run, requests 2..3 of every 4 are traced: half of them, and
/// half of each kind when a stream alternates two kinds of request.
bool Traced(const RunOptions& ro, uint64_t i) {
  return ro.trace && (i >> 1) % 2 == 1;
}

bool Sampled(uint64_t seed, uint64_t i) {
  return DeriveSeed(seed ^ 0x5eedc0de, i) % kCheckOneIn == 0;
}

/// One request of a workload's stream.
struct Request {
  size_t query = 0;
  AccessSemantics semantics = AccessSemantics::kBinding;
  SubjectId subject = 0;            ///< single-subject requests
  std::vector<SubjectId> subjects;  ///< batch requests
};

/// Fills the query and semantics of `stream` round by round: each round
/// runs query q counts[q] times, in a seeded order, and each query
/// alternates semantics from one of its requests to the next. Every window
/// of a run then sees nearly the same mix, which independent draws vary by
/// a third over a run's few hundred batch requests.
void StratifyQueries(const std::vector<size_t>& counts, Rng* rng,
                     std::vector<Request>* stream) {
  std::vector<size_t> base;
  for (size_t q = 0; q < counts.size(); ++q) {
    base.insert(base.end(), counts[q], q);
  }
  std::vector<size_t> order;
  std::vector<size_t> seen(counts.size(), 0);
  for (size_t k = 0; k < stream->size(); ++k) {
    const size_t pos = k % base.size();
    if (pos == 0) {
      order = base;
      for (size_t j = order.size(); j > 1; --j) {
        std::swap(order[j - 1], order[rng->Uniform(j)]);
      }
    }
    Request& rq = (*stream)[k];
    rq.query = order[pos];
    rq.semantics = (rq.query + seen[rq.query]++) % 2 == 0
                       ? AccessSemantics::kBinding
                       : AccessSemantics::kView;
  }
}

/// Zipf(1) quotas: the query of rank r runs about n/(r+1) times per round,
/// so the least frequent one runs once.
std::vector<size_t> ZipfCounts(size_t n) {
  std::vector<size_t> counts(n);
  for (size_t r = 0; r < n; ++r) {
    counts[r] = static_cast<size_t>(
        std::lround(static_cast<double>(n) / static_cast<double>(r + 1)));
  }
  return counts;
}

/// Loop control shared by the closed-loop clients: run until the deadline,
/// but never stop before `min_requests` (the counted prefix).
class Window {
 public:
  Window(int64_t start_ns, double seconds, uint64_t min_requests)
      : start_(start_ns),
        deadline_(start_ns + static_cast<int64_t>(seconds * 1e9)),
        min_(min_requests) {}

  bool Continue(uint64_t done) const {
    return done < min_ || NowNs() < deadline_;
  }
  int64_t start() const { return start_; }
  int64_t deadline() const { return deadline_; }

 private:
  int64_t start_;
  int64_t deadline_;
  uint64_t min_;
};

/// Per-request counts over the counted prefix, plus the answer digest.
struct Counts {
  uint64_t requests = 0;
  ExecStats exec;
  uint64_t join_nodes = 0;
  uint64_t visibility_nodes = 0;
  uint64_t digest = kFnvOffset;

  void AddOperators(const EvalResult& r) {
    for (const OperatorStats& op : r.operators) {
      const std::string_view name = op.op;
      if (name == "join") join_nodes += op.stats.nodes_scanned;
      if (name == "visibility") visibility_nodes += op.stats.nodes_scanned;
    }
  }
  /// A hidden-interval sweep the benchmark ran itself (traced requests).
  void AddSweep(const ExecStats& sweep) {
    exec += sweep;
    visibility_nodes += sweep.nodes_scanned;
  }
  void Add(const EvalResult& r) {
    ++requests;
    exec += r.exec;
    AddOperators(r);
    digest = FnvAddNodes(digest, r.answers);
  }
  void Add(const SubjectBatchResult& b) {
    ++requests;
    exec += b.exec;
    for (const ClassEvalResult& c : b.classes) AddOperators(c.result);
    for (size_t i = 0; i < b.class_of.size(); ++i) {
      digest = FnvAddNodes(digest, b.ResultFor(i).answers);
    }
  }
};

void PutCounts(const Counts& c, const IoStatsSnapshot& io, Outcome* o) {
  const uint64_t n = c.requests;
  auto& l = o->layer;
  l["query.join_nodes"] = PerUnit(c.join_nodes, n);
  l["exec.nodes_scanned"] = PerUnit(c.exec.nodes_scanned, n);
  l["exec.codes_checked"] = PerUnit(c.exec.codes_checked, n);
  l["exec.checks_elided"] = PerUnit(c.exec.checks_elided, n);
  l["exec.fetch_waits"] = PerUnit(c.exec.fetch_waits, n);
  l["storage.page_reads"] = PerUnit(io.page_reads, n);
  l["storage.buffer_hit_ratio"] =
      PerUnit(io.cache_hits, io.cache_hits + io.page_reads);
  l["storage.pages_skipped"] = PerUnit(io.pages_skipped, n);
  l["core.visibility_nodes"] = PerUnit(c.visibility_nodes, n);
  l["query.classes_per_request"] = PerUnit(c.exec.classes_evaluated, n);
  l["query.class_dedup_ratio"] =
      PerUnit(c.exec.class_dedup_hits, c.exec.subjects_batched);
  l["serve.merge_comparisons"] = PerUnit(c.exec.merge_comparisons, n);
  o->answer_digest = c.digest;
  o->count_prefix = c.requests;
}

/// Mean self time per traced request of the spans named `span`.
void PutSpan(const Tracer& tracer, std::string_view span, const char* metric,
             double ns_per_unit, const Outcome& o, Outcome* out) {
  out->layer[metric] =
      PerUnit(static_cast<double>(tracer.SelfNs(span)) / ns_per_unit,
              static_cast<double>(o.traced_ms.size()));
}

void RecordLatency(bool traced, int64_t ns, Outcome* o) {
  (traced ? o->traced_ms : o->untraced_ms).push_back(Millis(ns));
}

/// Benchmark-side probe run before a traced view request, outside its timed
/// window: times the HiddenSubtreeIntervals call the evaluation is about to
/// make. That call is a cache lookup unless a commit dropped the subject's
/// intervals; then the probe does the sweep the evaluation would have done.
Status ProbeVisibility(SecureStore* store, const Request& rq, Tracer* t,
                       ExecStats* sweep) {
  if (t == nullptr || rq.semantics != AccessSemantics::kView) {
    return Status::OK();
  }
  Tracer::Span span(t, "visibility");
  return store->HiddenSubtreeIntervals(rq.subject, sweep).status();
}

/// The paper's zero-extra-I/O claim and pin hygiene, checked on every run.
void Gates(uint64_t extra_access_io, size_t active_pins, Outcome* o) {
  o->layer["exec.extra_access_io"] = static_cast<double>(extra_access_io);
  o->layer["core.active_pins_at_exit"] = static_cast<double>(active_pins);
  if (extra_access_io != 0) {
    o->Fail("exec.extra_access_io = " + std::to_string(extra_access_io));
  }
  if (active_pins != 0) {
    o->Fail("core.active_pins_at_exit = " + std::to_string(active_pins));
  }
}

/// Store size at the end of the run, summed over `stores` (the replicas of
/// a sharded store are all counted: they are all stored).
Status PutStoreSize(const std::vector<SecureStore*>& stores, Outcome* o) {
  double pages = 0, entries = 0, transitions = 0, bytes = 0;
  for (SecureStore* s : stores) {
    const double subject_bytes =
        static_cast<double>((s->codebook().num_subjects() + 7) / 8);
    const double n_pages = static_cast<double>(s->nok()->num_pages());
    const double n_entries = static_cast<double>(s->codebook().size());
    SECXML_ASSIGN_OR_RETURN(uint64_t t, s->nok()->CountEmbeddedTransitions());
    pages += n_pages;
    entries += n_entries;
    transitions += static_cast<double>(t);
    bytes +=
        n_pages * static_cast<double>(kPageSize) + n_entries * subject_bytes;
  }
  o->layer["nok.pages"] = pages;
  o->layer["core.codebook_entries"] = entries;
  o->layer["core.dol_transitions"] = transitions;
  o->store_bytes_per_node =
      PerUnit(bytes, static_cast<double>(stores.front()->num_nodes()));
  return Status::OK();
}

// --- Set-up ------------------------------------------------------------

/// A single SecureStore with a write-ahead log. The caches are declared
/// before the store: an attached invalidation hook must outlive it.
struct StoreFixture {
  cache::ResultCache results;
  QueryPlanCache plans;
  Document doc;
  DolLabeling labeling;
  MemPagedFile data;
  MemPagedFile wal;
  std::unique_ptr<SecureStore> store;
};

/// Four full replicas behind a coordinator, reading through a device that
/// charges kShardReadLatencyUs per physical page read.
struct ShardedFixture {
  Document doc;
  DolLabeling labeling;
  std::unique_ptr<ShardFileSet> files;  // outlives `store`
  std::unique_ptr<ShardedStore> store;
};

Status ParseAndLabel(const Inputs& in, Document* doc, DolLabeling* labeling,
                     SetupTimes* t) {
  const int64_t t0 = NowNs();
  SECXML_RETURN_NOT_OK(ParseXml(in.xml, doc));
  const int64_t t1 = NowNs();
  *labeling =
      DolLabeling::BuildFromEvents(in.num_nodes, in.initial_acl, in.events);
  const int64_t t2 = NowNs();
  t->parse_s = Seconds(t1 - t0);
  t->label_s = Seconds(t2 - t1);
  if (doc->NumNodes() != in.num_nodes) {
    return Status::Corruption("parsed document size differs from the inputs");
  }
  return Status::OK();
}

Status BuildStore(const Inputs& in, size_t pool_pages, StoreFixture* f,
                  SetupTimes* t) {
  SECXML_RETURN_NOT_OK(ParseAndLabel(in, &f->doc, &f->labeling, t));
  NokStoreOptions opts;
  opts.buffer_pool_pages = pool_pages;
  const int64_t t0 = NowNs();
  SECXML_RETURN_NOT_OK(SecureStore::BuildWithWal(
      f->doc, f->labeling, &f->data, &f->wal, opts, &f->store));
  t->build_s = Seconds(NowNs() - t0);
  return Status::OK();
}

/// Runs `once` kSetups times, keeping the last fixture. The previous one is
/// freed first so peak memory holds one store.
template <typename Fixture>
Status SetUp(const std::function<Status(Fixture*, SetupTimes*)>& once,
             std::unique_ptr<Fixture>* out, Outcome* o) {
  for (int i = 0; i < kSetups; ++i) {
    out->reset();
    auto f = std::make_unique<Fixture>();
    SetupTimes t;
    SECXML_RETURN_NOT_OK(once(f.get(), &t));
    o->setups.push_back(t);
    *out = std::move(f);
  }
  return Status::OK();
}

/// Pool subjects in chunks of `n` (the warm-up of the batch workloads).
std::vector<std::vector<SubjectId>> PoolChunks(size_t n) {
  std::vector<std::vector<SubjectId>> chunks;
  for (SubjectId s = 0; s < kPoolSubjects; ++s) {
    if (s % n == 0) chunks.emplace_back();
    chunks.back().push_back(s);
  }
  return chunks;
}

QueryDriverOptions DriverOptions(AccessSemantics sem) {
  QueryDriverOptions d;
  d.semantics = sem;
  return d;
}

// --- single_subject ------------------------------------------------------

Status RunSingleSubject(const Inputs& in, const RunOptions& ro, Outcome* o) {
  const PatternTree& warm_query = in.queries[0];
  std::unique_ptr<StoreFixture> f;
  SECXML_RETURN_NOT_OK(SetUp<StoreFixture>(
      [&](StoreFixture* fx, SetupTimes* t) -> Status {
        SECXML_RETURN_NOT_OK(BuildStore(in, kSmallPoolPages, fx, t));
        const int64_t t0 = NowNs();
        QueryEvaluator eval(fx->store.get());
        for (SubjectId s = 0; s < kPoolSubjects; ++s) {
          for (AccessSemantics sem : kBothSemantics) {
            EvalOptions eo;
            eo.semantics = sem;
            eo.subject = s;
            auto r = eval.Evaluate(warm_query, eo);
            if (!r.ok()) return r.status();
          }
        }
        t->warm_s = Seconds(NowNs() - t0);
        return Status::OK();
      },
      &f, o));
  SecureStore* store = f->store.get();
  o->pool_pages = kSmallPoolPages;
  o->store_pages = store->nok()->num_pages();

  Rng rng(DeriveSeed(in.seed, 7001));
  std::vector<Request> stream(kStreamLength);
  StratifyQueries(std::vector<size_t>(in.queries.size(), 1), &rng, &stream);
  for (Request& rq : stream) {
    rq.subject = static_cast<SubjectId>(rng.Uniform(kPoolSubjects));
  }

  QueryEvaluator eval(store);
  Tracer tracer;
  Counts counts;
  uint64_t extra_io = 0;
  struct Check {
    const Request* rq;
    std::vector<NodeId> answers;
  };
  std::vector<Check> checks;
  const IoStatsSnapshot io0 = store->io_stats().Snapshot();
  IoStatsSnapshot io_prefix = io0;
  Window w(NowNs(), ro.seconds, kSinglePrefix);
  uint64_t i = 0;
  for (; w.Continue(i); ++i) {
    const Request& rq = stream[i % stream.size()];
    const bool traced = Traced(ro, i);
    Tracer* t = traced ? &tracer : nullptr;
    EvalOptions eo;
    eo.semantics = rq.semantics;
    eo.subject = rq.subject;
    ExecStats sweep;
    const Status probe = ProbeVisibility(store, rq, t, &sweep);
    const int64_t t0 = NowNs();
    Result<EvalResult> r = [&]() -> Result<EvalResult> {
      SECXML_RETURN_NOT_OK(probe);
      PreparedQuery pq;
      {
        Tracer::Span span(t, "prepare");
        SECXML_RETURN_NOT_OK(PrepareQuery(in.queries[rq.query], &pq));
      }
      Tracer::Span span(t, "evaluate");
      return eval.EvaluatePrepared(pq, eo);
    }();
    RecordLatency(traced, NowNs() - t0, o);
    if (i + 1 == kSinglePrefix) io_prefix = store->io_stats().Snapshot();
    if (!r.ok()) {
      o->Fail("single_subject request: " + r.status().ToString());
      continue;
    }
    ++o->subject_answers;
    extra_io += r->exec.access_only_fetches;
    if (i < kSinglePrefix) {
      counts.Add(*r);
      counts.AddSweep(sweep);
    }
    if (checks.size() < kMaxChecks && Sampled(in.seed, i)) {
      checks.push_back({&rq, r->answers});
    }
  }
  o->measured_s = Seconds(NowNs() - w.start());
  o->attempted += i;
  o->peak_rss_mb = PeakRssMb();

  // Independent path: a one-subject batch through the word-parallel
  // pipeline must return the same bytes.
  for (const Check& c : checks) {
    ++o->attempted;
    QueryDriver driver(store, DriverOptions(c.rq->semantics));
    auto b = driver.EvaluateForSubjects(
        in.queries[c.rq->query], std::span<const SubjectId>(&c.rq->subject, 1));
    if (!b.ok()) {
      o->Fail("single_subject check: " + b.status().ToString());
      continue;
    }
    extra_io += b->exec.access_only_fetches;
    if (b->ResultFor(0).answers != c.answers) {
      o->Fail("single_subject answer differs from a one-subject batch");
    }
  }

  PutCounts(counts, io_prefix - io0, o);
  PutSpan(tracer, "prepare", "query.prepare_us", 1e3, *o, o);
  PutSpan(tracer, "evaluate", "query.evaluate_ms", 1e6, *o, o);
  PutSpan(tracer, "visibility", "core.visibility_ms", 1e6, *o, o);
  SECXML_RETURN_NOT_OK(PutStoreSize({store}, o));
  Gates(extra_io, store->epochs()->active_pins(), o);
  return Status::OK();
}

// --- role_batch ----------------------------------------------------------

Status RunRoleBatch(const Inputs& in, const RunOptions& ro, Outcome* o) {
  const PatternTree& warm_query = in.queries[0];
  std::unique_ptr<StoreFixture> f;
  SECXML_RETURN_NOT_OK(SetUp<StoreFixture>(
      [&](StoreFixture* fx, SetupTimes* t) -> Status {
        SECXML_RETURN_NOT_OK(BuildStore(in, kWholePoolPages, fx, t));
        const int64_t t0 = NowNs();
        for (AccessSemantics sem : kBothSemantics) {
          QueryDriver driver(fx->store.get(), DriverOptions(sem));
          for (const auto& chunk : PoolChunks(kRoleBatch)) {
            auto r = driver.EvaluateForSubjects(warm_query, chunk);
            if (!r.ok()) return r.status();
          }
        }
        t->warm_s = Seconds(NowNs() - t0);
        return Status::OK();
      },
      &f, o));
  SecureStore* store = f->store.get();
  o->pool_pages = kWholePoolPages;
  o->store_pages = store->nok()->num_pages();

  // Even requests: role-profile subjects only (at most kRoles classes).
  // Odd requests: every distinct-profile subject plus role draws, more
  // classes than one 64-bit mask word holds.
  Rng rng(DeriveSeed(in.seed, 7002));
  std::vector<Request> stream(kStreamLength / 4);
  StratifyQueries(std::vector<size_t>(in.queries.size(), 1), &rng, &stream);
  for (size_t k = 0; k < stream.size(); ++k) {
    Request& rq = stream[k];
    if (k % 2 == 1) {
      for (SubjectId s = kRoleSubjects; s < kPoolSubjects; ++s) {
        rq.subjects.push_back(s);
      }
    }
    while (rq.subjects.size() < kRoleBatch) {
      rq.subjects.push_back(static_cast<SubjectId>(rng.Uniform(kRoleSubjects)));
    }
    for (size_t j = rq.subjects.size(); j > 1; --j) {
      std::swap(rq.subjects[j - 1], rq.subjects[rng.Uniform(j)]);
    }
  }

  QueryDriver binding(store, DriverOptions(AccessSemantics::kBinding));
  QueryDriver view(store, DriverOptions(AccessSemantics::kView));
  Tracer tracer;
  Counts counts;
  uint64_t extra_io = 0;
  struct Check {
    const Request* rq;
    SubjectBatchResult batch;
  };
  std::vector<Check> checks;
  const IoStatsSnapshot io0 = store->io_stats().Snapshot();
  IoStatsSnapshot io_prefix = io0;
  Window w(NowNs(), ro.seconds, kBatchPrefix);
  uint64_t i = 0;
  for (; w.Continue(i); ++i) {
    const Request& rq = stream[i % stream.size()];
    const bool traced = Traced(ro, i);
    Tracer* t = traced ? &tracer : nullptr;
    QueryDriver& driver =
        rq.semantics == AccessSemantics::kView ? view : binding;
    if (t != nullptr) {
      // Benchmark-side probe, outside the timed window: repeats the
      // grouping EvaluateForSubjects does first (the columns are cached
      // after warm-up, so it changes nothing the request then does).
      Tracer::Span span(t, "group");
      (void)store->GroupSubjects(rq.subjects);
    }
    const int64_t t0 = NowNs();
    Result<SubjectBatchResult> r = [&]() -> Result<SubjectBatchResult> {
      Tracer::Span span(t, "batch");
      return driver.EvaluateForSubjects(in.queries[rq.query], rq.subjects);
    }();
    RecordLatency(traced, NowNs() - t0, o);
    if (i + 1 == kBatchPrefix) io_prefix = store->io_stats().Snapshot();
    if (!r.ok()) {
      o->Fail("role_batch request: " + r.status().ToString());
      continue;
    }
    o->subject_answers += rq.subjects.size();
    extra_io += r->exec.access_only_fetches;
    if (i < kBatchPrefix) counts.Add(*r);
    if (checks.size() < kMaxBatchChecks && Sampled(in.seed, i)) {
      checks.push_back({&rq, std::move(*r)});
    }
  }
  o->measured_s = Seconds(NowNs() - w.start());
  o->attempted += i;
  o->peak_rss_mb = PeakRssMb();

  // Independent path: the per-subject evaluator, for a seeded subset of
  // each checked batch's subjects.
  QueryEvaluator eval(store);
  Rng pick(DeriveSeed(in.seed, 7102));
  for (const Check& c : checks) {
    for (size_t k = 0; k < kCheckSubjects; ++k) {
      ++o->attempted;
      const size_t pos = pick.Uniform(c.rq->subjects.size());
      EvalOptions eo;
      eo.semantics = c.rq->semantics;
      eo.subject = c.rq->subjects[pos];
      auto r = eval.Evaluate(in.queries[c.rq->query], eo);
      if (!r.ok()) {
        o->Fail("role_batch check: " + r.status().ToString());
        continue;
      }
      extra_io += r->exec.access_only_fetches;
      if (r->answers != c.batch.ResultFor(pos).answers) {
        o->Fail("role_batch answer differs from the per-subject evaluator");
      }
    }
  }

  PutCounts(counts, io_prefix - io0, o);
  PutSpan(tracer, "group", "core.group_us", 1e3, *o, o);
  PutSpan(tracer, "batch", "query.batch_ms", 1e6, *o, o);
  SECXML_RETURN_NOT_OK(PutStoreSize({store}, o));
  Gates(extra_io, store->epochs()->active_pins(), o);
  return Status::OK();
}

// --- acl_storm -----------------------------------------------------------

/// One revoke/re-grant target of the ACL writer: a range inside one of a
/// distinct-profile subject's accessible intervals, so the pair restores
/// the original ACLs and the subject's class never merges or splits.
struct WriterTarget {
  SubjectId subject = 0;
  NodeId begin = 0;
  NodeId end = 0;
};

std::vector<WriterTarget> WriterTargets(const Inputs& in) {
  Rng rng(DeriveSeed(in.seed, 7203));
  std::vector<WriterTarget> targets;
  while (targets.size() < kWriterTargets) {
    const SubjectId s = static_cast<SubjectId>(
        kRoleSubjects + rng.Uniform(kPoolSubjects - kRoleSubjects));
    const auto& intervals = in.accessible[s];
    if (intervals.empty()) continue;
    const NodeInterval& iv = intervals[rng.Uniform(intervals.size())];
    const NodeId len = std::min<NodeId>(kWriterRangeNodes, iv.end - iv.begin);
    const NodeId slack = iv.end - iv.begin - len;
    const NodeId begin = iv.begin + static_cast<NodeId>(rng.Uniform(slack + 1));
    targets.push_back({s, begin, begin + len});
  }
  return targets;
}

struct UpdateRecord {
  int64_t due_ns = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  size_t backlog = 0;  ///< later updates already due when this one began
};

/// Due times of the ACL writer's updates, set by the reader's progress:
/// update k falls due when the reader completes request
/// (k + 1) * kReadsPerUpdate, whatever the writer is doing then.
class UpdateSchedule {
 public:
  /// Reader side: called after each completed request.
  void ReaderDone(uint64_t requests_done) {
    if (requests_done % kReadsPerUpdate != 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      due_ns_.push_back(NowNs());
    }
    cv_.notify_one();
  }
  /// Reader side: no more updates fall due.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  /// Writer side: waits until update k is due; false once the schedule is
  /// closed and update k never fell due.
  bool WaitDue(size_t k, UpdateRecord* u) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return due_ns_.size() > k || closed_; });
    if (due_ns_.size() <= k) return false;
    u->due_ns = due_ns_[k];
    u->backlog = due_ns_.size() - k - 1;
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int64_t> due_ns_;
  bool closed_ = false;
};

Status RunAclStorm(const Inputs& in, const RunOptions& ro, Outcome* o) {
  const PatternTree& warm_query = in.queries[0];
  std::unique_ptr<StoreFixture> f;
  SECXML_RETURN_NOT_OK(SetUp<StoreFixture>(
      [&](StoreFixture* fx, SetupTimes* t) -> Status {
        SECXML_RETURN_NOT_OK(BuildStore(in, kSmallPoolPages, fx, t));
        AttachResultCacheInvalidation(fx->store.get(), &fx->results);
        const int64_t t0 = NowNs();
        QueryEvaluator eval(fx->store.get());
        const QueryCaches caches{&fx->results, &fx->plans};
        for (SubjectId s = 0; s < kPoolSubjects; ++s) {
          for (AccessSemantics sem : kBothSemantics) {
            EvalOptions eo;
            eo.semantics = sem;
            eo.subject = s;
            auto r = EvaluateWithCaches(fx->store.get(), &eval, warm_query, eo,
                                        caches);
            if (!r.ok()) return r.status();
          }
        }
        t->warm_s = Seconds(NowNs() - t0);
        return Status::OK();
      },
      &f, o));
  SecureStore* store = f->store.get();
  const QueryCaches caches{&f->results, &f->plans};
  o->pool_pages = kSmallPoolPages;
  o->store_pages = store->nok()->num_pages();
  o->reads_per_update = kReadsPerUpdate;

  // Reader stream: Zipf quotas over the query list (Table 1 first),
  // uniform subjects.
  Rng rng(DeriveSeed(in.seed, 7003));
  std::vector<Request> stream(kStreamLength);
  StratifyQueries(ZipfCounts(in.queries.size()), &rng, &stream);
  for (Request& rq : stream) {
    rq.subject = static_cast<SubjectId>(rng.Uniform(kPoolSubjects));
  }
  const std::vector<WriterTarget> targets = WriterTargets(in);

  // Stats surfaces, read while no update runs (the WAL's are not atomic).
  const WriteAheadLog::Stats wal0 = store->wal()->stats();
  const SecureStore::UpdateStats us0 = store->update_stats();
  const EpochManager::Stats ep0 = store->epochs()->stats();
  const cache::ResultCache::Stats cs0 = f->results.stats();
  const uint64_t plan_hits0 = f->plans.hits();
  const uint64_t plan_misses0 = f->plans.misses();
  const IoStatsSnapshot io0 = store->io_stats().Snapshot();

  // The writer is open-loop against its own progress: update k is timed
  // from its due time, so a stall counts against every update it delays.
  // Due times follow the reader's progress rather than the clock, so the
  // share of reads between two commits (and with it the result cache's hit
  // ratio) does not change with the host's speed.
  UpdateSchedule schedule;
  Tracer writer_tracer;
  std::vector<UpdateRecord> updates;
  std::vector<std::string> update_errors;
  std::jthread writer([&] {
    UpdateRecord u;
    for (size_t k = 0; schedule.WaitDue(k, &u); ++k) {
      const WriterTarget& tg = targets[(k / 2) % targets.size()];
      u.begin_ns = NowNs();
      Status st;
      {
        Tracer::Span span(&writer_tracer, "commit");
        st = store->SetRangeAccess(tg.begin, tg.end, tg.subject, k % 2 == 1);
      }
      u.end_ns = NowNs();
      updates.push_back(u);
      if (!st.ok()) update_errors.push_back(st.ToString());
    }
  });

  QueryEvaluator eval(store);
  Tracer tracer;
  Counts counts;
  uint64_t extra_io = 0;
  std::vector<std::pair<int64_t, int64_t>> reader_spans;
  std::vector<double> hit_ms, miss_ms;
  size_t checks = 0;
  Window w(NowNs(), ro.seconds, 0);
  uint64_t i = 0;
  for (; w.Continue(i); schedule.ReaderDone(++i)) {
    const Request& rq = stream[i % stream.size()];
    const bool traced = Traced(ro, i);
    Tracer* t = traced ? &tracer : nullptr;
    EvalOptions eo;
    eo.semantics = rq.semantics;
    eo.subject = rq.subject;
    const bool check = checks < kMaxChecks && Sampled(in.seed, i);
    // A checked request holds one outer pin across the cached answer and
    // the live re-evaluation, so both see the same snapshot while the
    // writer commits.
    std::optional<SecureStore::SnapshotPin> pin;
    if (check) pin.emplace(store);
    ExecStats sweep;
    const Status probe = ProbeVisibility(store, rq, t, &sweep);
    const int64_t t0 = NowNs();
    Result<EvalResult> r = [&]() -> Result<EvalResult> {
      SECXML_RETURN_NOT_OK(probe);
      Tracer::Span span(t, "evaluate");
      return EvaluateWithCaches(store, &eval, in.queries[rq.query], eo, caches);
    }();
    const int64_t t1 = NowNs();
    // A traced view request's probe may have done the sweep its timed call
    // would have done, so in a traced run view requests stay out of the
    // latencies: trace.overhead_pct compares binding requests, and the
    // cache and commit-overlap latencies come from untraced requests.
    if (!ro.trace || rq.semantics != AccessSemantics::kView) {
      RecordLatency(traced, t1 - t0, o);
    }
    if (!r.ok()) {
      o->Fail("acl_storm request: " + r.status().ToString());
      continue;
    }
    ++o->subject_answers;
    extra_io += r->exec.access_only_fetches;
    counts.Add(*r);
    counts.AddSweep(sweep);
    if (!traced) {
      reader_spans.emplace_back(t0, t1);
      (r->exec.result_cache_hits > 0 ? hit_ms : miss_ms)
          .push_back(Millis(t1 - t0));
    }
    if (check) {
      ++checks;
      ++o->attempted;
      auto live = eval.Evaluate(in.queries[rq.query], eo);
      if (!live.ok()) {
        o->Fail("acl_storm check: " + live.status().ToString());
      } else {
        extra_io += live->exec.access_only_fetches;
        if (live->answers != r->answers) {
          o->Fail("acl_storm cached answer differs from live evaluation");
        }
      }
    }
  }
  const int64_t reader_end = NowNs();
  schedule.Close();
  writer.join();
  o->measured_s = Seconds(reader_end - w.start());
  o->attempted += i + updates.size();
  o->peak_rss_mb = PeakRssMb();
  o->writer_rate_per_s = PerUnit(static_cast<double>(updates.size()),
                                 o->measured_s);
  for (const std::string& e : update_errors) o->Fail("acl_storm update: " + e);

  // Writer health: a writer that keeps up finishes each update before the
  // next one falls due. One whose backlog grows fails the run rather than
  // letting update_p95_ms measure an overloaded generator.
  std::vector<double> late_ms, tail_backlog;
  std::vector<std::pair<int64_t, int64_t>> commit_spans;
  for (size_t k = 0; k < updates.size(); ++k) {
    const UpdateRecord& u = updates[k];
    o->update_ms.push_back(Millis(u.end_ns - u.due_ns));
    late_ms.push_back(Millis(u.begin_ns - u.due_ns));
    if (k >= updates.size() * 3 / 4) {
      tail_backlog.push_back(static_cast<double>(u.backlog));
    }
    commit_spans.emplace_back(u.begin_ns, u.end_ns);
  }
  if (Median(tail_backlog) >= 1) {
    o->Fail("acl_storm writer backlog grew (" +
            std::to_string(Median(tail_backlog)) + " updates due)");
  }

  // Readers whose request overlapped a commit vs those that did not.
  std::vector<double> overlap_ms, clear_ms;
  for (const auto& [a, b] : reader_spans) {
    auto it = std::lower_bound(
        commit_spans.begin(), commit_spans.end(), std::make_pair(b, b));
    bool overlaps = false;
    if (it != commit_spans.begin()) overlaps = std::prev(it)->second > a;
    (overlaps ? overlap_ms : clear_ms).push_back(Millis(b - a));
  }

  const uint64_t commits = updates.size();
  const WriteAheadLog::Stats wal1 = store->wal()->stats();
  const SecureStore::UpdateStats us1 = store->update_stats();
  const EpochManager::Stats ep1 = store->epochs()->stats();
  const cache::ResultCache::Stats cs1 = f->results.stats();
  const uint64_t hits = cs1.hits - cs0.hits;
  const uint64_t plan_hits = f->plans.hits() - plan_hits0;
  const uint64_t plan_misses = f->plans.misses() - plan_misses0;
  auto& l = o->layer;
  PutCounts(counts, store->io_stats().Snapshot() - io0, o);
  PutSpan(tracer, "evaluate", "query.evaluate_ms", 1e6, *o, o);
  PutSpan(tracer, "visibility", "core.visibility_ms", 1e6, *o, o);
  l["core.commit_ms"] =
      PerUnit(static_cast<double>(writer_tracer.SelfNs("commit")) / 1e6,
              static_cast<double>(commits));
  l["core.views_patched_per_commit"] =
      PerUnit(us1.views_patched - us0.views_patched, commits);
  l["core.epoch_advances"] = PerUnit(ep1.advances - ep0.advances, commits);
  l["core.commit_overlap_p99_ms"] = Percentile(overlap_ms, 0.99);
  l["core.commit_clear_p99_ms"] = Percentile(clear_ms, 0.99);
  l["storage.wal_bytes_per_update"] =
      PerUnit(wal1.bytes_appended - wal0.bytes_appended, commits);
  l["storage.wal_syncs_per_update"] = PerUnit(wal1.syncs - wal0.syncs, commits);
  l["cache.hit_ratio"] = PerUnit(hits, hits + cs1.misses - cs0.misses);
  l["cache.invalidated_per_commit"] =
      PerUnit(cs1.invalidated - cs0.invalidated, commits);
  l["cache.rejected_inserts"] =
      PerUnit(cs1.rejected_inserts - cs0.rejected_inserts, i);
  l["cache.plan_hit_ratio"] = PerUnit(plan_hits, plan_hits + plan_misses);
  l["cache.hit_p50_ms"] = Percentile(hit_ms, 0.5);
  l["cache.miss_p50_ms"] = Percentile(miss_ms, 0.5);
  l["load.writer_late_p50_ms"] = Percentile(late_ms, 0.5);
  l["load.writer_late_max_ms"] = Percentile(late_ms, 1.0);
  SECXML_RETURN_NOT_OK(PutStoreSize({store}, o));
  Gates(extra_io, store->epochs()->active_pins(), o);
  return Status::OK();
}

// --- sharded_scan --------------------------------------------------------

/// Binding semantics only: under view semantics the coordinator filters
/// visibility on shard 0 alone, and each subject's first hidden-interval
/// sweep reads the whole document through that shard's small pool at the
/// simulated device latency (seconds per subject at 200k nodes), which no
/// set-up budget covers.
ShardCoordinatorOptions CoordinatorOptions() {
  ShardCoordinatorOptions c;
  c.semantics = AccessSemantics::kBinding;
  return c;
}

Status RunShardedScan(const Inputs& in, const RunOptions& ro, Outcome* o) {
  // The whole-document scan makes every shard read.
  std::vector<PatternTree> queries = in.queries;
  PatternTree scan;
  SECXML_RETURN_NOT_OK(ParseXPath("//*", &scan));
  queries.push_back(std::move(scan));

  const PatternTree& warm_query = in.queries[0];
  std::unique_ptr<ShardedFixture> f;
  SECXML_RETURN_NOT_OK(SetUp<ShardedFixture>(
      [&](ShardedFixture* fx, SetupTimes* t) -> Status {
        SECXML_RETURN_NOT_OK(ParseAndLabel(in, &fx->doc, &fx->labeling, t));
        fx->files = std::make_unique<ShardFileSet>(
            kShards, std::chrono::microseconds(kShardReadLatencyUs));
        ShardedStoreOptions so;
        so.num_shards = kShards;
        so.nok.buffer_pool_pages = kShardPoolPages;
        const int64_t t0 = NowNs();
        SECXML_RETURN_NOT_OK(ShardedStore::Build(
            fx->doc, fx->labeling, so, fx->files->provider(), &fx->store));
        const int64_t t1 = NowNs();
        t->build_s = Seconds(t1 - t0);
        ShardCoordinator coord(fx->store.get(), CoordinatorOptions());
        for (const auto& chunk : PoolChunks(kShardBatch)) {
          auto r = coord.EvaluateForSubjects(warm_query, chunk);
          if (!r.ok()) return r.status();
        }
        t->warm_s = Seconds(NowNs() - t1);
        return Status::OK();
      },
      &f, o));
  ShardedStore* store = f->store.get();
  o->pool_pages = kShardPoolPages * kShards;
  o->store_pages = store->shard_store(0)->nok()->num_pages();

  Rng rng(DeriveSeed(in.seed, 7004));
  std::vector<Request> stream(kStreamLength / 4);
  StratifyQueries(std::vector<size_t>(queries.size(), 1), &rng, &stream);
  for (Request& rq : stream) {
    rq.semantics = CoordinatorOptions().semantics;
    for (size_t k = 0; k < kShardBatch; ++k) {
      rq.subjects.push_back(static_cast<SubjectId>(rng.Uniform(kPoolSubjects)));
    }
  }

  ShardCoordinator coord(store, CoordinatorOptions());
  Tracer tracer;
  Counts counts;
  uint64_t extra_io = 0;
  struct Check {
    const Request* rq;
    SubjectBatchResult batch;
  };
  std::vector<Check> checks;
  auto shard_reads = [&] {
    std::vector<uint64_t> reads;
    for (size_t s = 0; s < store->num_shards(); ++s) {
      reads.push_back(store->shard_store(s)->io_stats().Snapshot().page_reads);
    }
    return reads;
  };
  const IoStatsSnapshot io0 = store->io_snapshot();
  IoStatsSnapshot io_prefix = io0;
  const std::vector<uint64_t> reads0 = shard_reads();
  std::vector<uint64_t> reads_prefix = reads0;
  Window w(NowNs(), ro.seconds, kBatchPrefix);
  uint64_t i = 0;
  for (; w.Continue(i); ++i) {
    const Request& rq = stream[i % stream.size()];
    const bool traced = Traced(ro, i);
    Tracer* t = traced ? &tracer : nullptr;
    const int64_t t0 = NowNs();
    Result<SubjectBatchResult> r = [&]() -> Result<SubjectBatchResult> {
      Tracer::Span span(t, "serve");
      return coord.EvaluateForSubjects(queries[rq.query], rq.subjects);
    }();
    RecordLatency(traced, NowNs() - t0, o);
    if (i + 1 == kBatchPrefix) {
      io_prefix = store->io_snapshot();
      reads_prefix = shard_reads();
    }
    if (!r.ok()) {
      o->Fail("sharded_scan request: " + r.status().ToString());
      continue;
    }
    o->subject_answers += rq.subjects.size();
    extra_io += r->exec.access_only_fetches;
    if (i < kBatchPrefix) counts.Add(*r);
    if (checks.size() < kMaxBatchChecks && Sampled(in.seed, i)) {
      checks.push_back({&rq, std::move(*r)});
    }
  }
  o->measured_s = Seconds(NowNs() - w.start());
  o->attempted += i;
  o->peak_rss_mb = PeakRssMb();

  // Independent path: the same batches on one unsharded store.
  MemPagedFile ref_file;
  std::unique_ptr<SecureStore> ref;
  NokStoreOptions ref_opts;
  ref_opts.buffer_pool_pages = kWholePoolPages;
  SECXML_RETURN_NOT_OK(
      SecureStore::Build(f->doc, f->labeling, &ref_file, ref_opts, &ref));
  for (const Check& c : checks) {
    ++o->attempted;
    QueryDriver driver(ref.get(), DriverOptions(c.rq->semantics));
    auto b = driver.EvaluateForSubjects(queries[c.rq->query], c.rq->subjects);
    if (!b.ok()) {
      o->Fail("sharded_scan check: " + b.status().ToString());
      continue;
    }
    extra_io += b->exec.access_only_fetches;
    for (size_t k = 0; k < c.rq->subjects.size(); ++k) {
      if (b->ResultFor(k).answers != c.batch.ResultFor(k).answers) {
        o->Fail("sharded_scan answer differs from the single store: " +
                queries[c.rq->query].ToString());
        break;
      }
    }
  }

  double max_reads = 0, sum_reads = 0;
  for (size_t s = 0; s < reads0.size(); ++s) {
    const double d = static_cast<double>(reads_prefix[s] - reads0[s]);
    max_reads = std::max(max_reads, d);
    sum_reads += d;
  }
  o->layer["serve.shard_read_imbalance"] =
      PerUnit(max_reads, sum_reads / static_cast<double>(reads0.size()));
  PutCounts(counts, io_prefix - io0, o);
  PutSpan(tracer, "serve", "serve.evaluate_ms", 1e6, *o, o);
  std::vector<SecureStore*> replicas;
  size_t pins = 0;
  for (size_t s = 0; s < store->num_shards(); ++s) {
    replicas.push_back(store->shard_store(s));
    pins += store->shard_store(s)->epochs()->active_pins();
  }
  SECXML_RETURN_NOT_OK(PutStoreSize(replicas, o));
  Gates(extra_io, pins + ref->epochs()->active_pins(), o);
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "single_subject", "role_batch", "acl_storm", "sharded_scan"};
  return names;
}

Status RunWorkload(const Inputs& inputs, const RunOptions& options,
                   Outcome* out) {
  if (options.workload == "single_subject") {
    return RunSingleSubject(inputs, options, out);
  }
  if (options.workload == "role_batch") {
    return RunRoleBatch(inputs, options, out);
  }
  if (options.workload == "acl_storm") return RunAclStorm(inputs, options, out);
  if (options.workload == "sharded_scan") {
    return RunShardedScan(inputs, options, out);
  }
  return Status::InvalidArgument("unknown workload " + options.workload);
}

}  // namespace secxml::perfbench
