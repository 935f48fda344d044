// serve / fleet: durable query serving under a fixed arrival schedule.
//
// Both workloads hold the publish workload's three tenants over synthetic
// Adult. The release stream (kStreamReleases releases per tenant, one cold
// and the rest warm, each after AddBatch) is precomputed at set-up, so no
// lattice search runs while queries are timed. The queries are a foundry
// mix generated per tenant with every per-bucket index below the smallest
// bucket count in that tenant's stream, so no query is out of range.
//
// Phases, in order:
//   unloaded  closed loop, one client, window 1;
//   low/high  open loop at the workload's fixed rates;
//   ladder    open loop at fixed increasing rates, for capacity, up to the
//             first rate that fails (traced run only).
// During the open-loop phases a writer publishes the next release of every
// tenant every kSwapInterval, so reads run beside durable writes and every
// swap forces router reloads and re-sweeps.
//
// `serve` runs a durable in-process ServingEngine; `fleet` runs the same
// inputs, phases and writer through a ShardFleet of two durable shard
// processes, so the only difference is the wire, the socket transport and
// fleet routing. Every OK answer is checked, outside the timed phases,
// against a fresh DisclosureAnalyzer over the snapshot it names.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cksafe/adult/adult.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/foundry/workload_foundry.h"
#include "cksafe/persist/durable_store.h"
#include "cksafe/serve/query_router.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/serve/serving_engine.h"
#include "cksafe/shard/fleet.h"
#include "cksafe/shard/wire.h"
#include "cksafe/stream/multi_policy_publisher.h"
#include "cksafe/util/page_io.h"
#include "loadgen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cksafe::DisclosureAnalyzer;
using cksafe::PublishedRelease;
using cksafe::Query;
using cksafe::QueryAnswer;
using cksafe::QueryKind;
using cksafe::ReleaseSnapshot;
using cksafe::Status;
using cksafe::StatusOr;
using cksafe::Table;
using AnswerFuture = std::future<StatusOr<QueryAnswer>>;
using SnapshotPtr = std::shared_ptr<const ReleaseSnapshot>;

// Inputs.
constexpr size_t kInitialRows = 10000;
constexpr size_t kStreamReleases = 6;
constexpr size_t kStreamBatchRows = 200;
constexpr size_t kQueryPool = 60000;
constexpr size_t kQueryMaxK = 6;
constexpr size_t kSetupReps = 3;
constexpr double kSetupMinS = 0.5;
constexpr size_t kSensitive = cksafe::kAdultOccupationColumn;

constexpr size_t kNumTenants = std::size(kTenants);

// Schedule. The capacity ladder runs only in the traced run (capacity_qps
// is a per-layer metric), for kLadderShare of its seconds. The rest of the
// run's seconds go to the first three phases, in these shares, as
// kSegments interleaved segments each.
constexpr double kUnloadedShare = 0.3;
constexpr double kLowShare = 0.35;
constexpr double kHighShare = 0.35;
constexpr double kLadderShare = 0.45;
constexpr size_t kSegments = 8;
constexpr auto kSwapInterval = std::chrono::milliseconds(250);
// Queries of the traced run's untraced-versus-traced comparison.
constexpr size_t kOverheadQueries = 20000;

// The arrival schedule: fixed low and high rates (with the writer running)
// and the capacity ladder (reads only), as fractions of each workload's
// reference capacity, so that both workloads run at the same share of what
// they sustain. The references come from the capacity_qps (below) of
// ladder runs of the unchanged code on a 4-vCPU KVM guest (README.md,
// "Rates"); a change that moves capacity past the ladder's top should
// re-measure them.
constexpr double kServeCapacityQps = 1.2e6;
constexpr double kFleetCapacityQps = 1e5;
constexpr double kLowFrac = 0.1;
constexpr double kHighFrac = 0.4;
constexpr double kLadderFrac[] = {0.25, 0.5, 0.65, 0.8, 0.9, 1.0,
                                  1.1,  1.25, 1.5, 2.0, 2.5, 3.0};
// The p99 limit a ladder rung is judged by.
constexpr double kP99LimitUs = 2000;
// Admission depth of the router (and of each fleet link): deep enough that
// a host stall of a few milliseconds at the top ladder rate does not shed,
// so capacity is judged by latency.
constexpr size_t kQueueDepth = 16384;

// --- inputs ---------------------------------------------------------------

struct StreamRelease {
  PublishedRelease release;
  size_t num_rows = 0;
};

struct Inputs {
  /// stream[t][i]: tenant t's i-th release.
  std::vector<std::vector<StreamRelease>> stream;
  std::vector<Query> queries;
};

StatusOr<Inputs> BuildInputs(uint64_t seed) {
  const Table full = cksafe::GenerateSyntheticAdult(
      kInitialRows + (kStreamReleases - 1) * kStreamBatchRows, seed);
  CKSAFE_ASSIGN_OR_RETURN(std::vector<cksafe::QuasiIdentifier> qis,
                          cksafe::AdultQuasiIdentifiers());
  Table initial(full.schema());
  for (size_t row = 0; row < kInitialRows; ++row) {
    CKSAFE_RETURN_IF_ERROR(initial.AppendRow(RowCells(full, row)));
  }
  cksafe::PublisherOptions base;
  base.seed = seed;
  cksafe::MultiPolicyPublisher publisher(std::move(initial), qis, kSensitive,
                                         base);
  for (const TenantSpec& tenant : kTenants) {
    publisher.AddTenant(tenant.name, tenant.c, tenant.k);
  }
  Inputs inputs;
  inputs.stream.resize(kNumTenants);
  for (size_t r = 0; r < kStreamReleases; ++r) {
    if (r > 0) {
      std::vector<std::vector<int32_t>> batch;
      for (size_t i = 0; i < kStreamBatchRows; ++i) {
        batch.push_back(
            RowCells(full, kInitialRows + (r - 1) * kStreamBatchRows + i));
      }
      CKSAFE_RETURN_IF_ERROR(publisher.AddBatch(batch));
    }
    CKSAFE_ASSIGN_OR_RETURN(std::vector<cksafe::TenantRelease> releases,
                            publisher.PublishAll());
    for (size_t t = 0; t < kNumTenants; ++t) {
      if (!releases[t].release.ok()) return releases[t].release.status();
      inputs.stream[t].push_back(
          StreamRelease{*releases[t].release, publisher.table().num_rows()});
    }
  }

  // Per-tenant query mixes, then interleaved round-robin.
  std::vector<std::vector<Query>> per_tenant;
  for (size_t t = 0; t < kNumTenants; ++t) {
    size_t min_buckets = SIZE_MAX;
    for (const StreamRelease& r : inputs.stream[t]) {
      min_buckets =
          std::min(min_buckets, r.release.bucketization.num_buckets());
    }
    cksafe::WorkloadFoundryConfig config;
    config.seed = seed * 31 + t;
    config.num_queries = kQueryPool / kNumTenants;
    config.tenants = {kTenants[t].name};
    config.max_k = kQueryMaxK;
    config.max_bucket = min_buckets - 1;
    CKSAFE_ASSIGN_OR_RETURN(std::vector<Query> queries,
                            cksafe::GenerateWorkload(config));
    per_tenant.push_back(std::move(queries));
  }
  for (size_t i = 0; i < kQueryPool / kNumTenants; ++i) {
    for (size_t t = 0; t < kNumTenants; ++t) {
      inputs.queries.push_back(per_tenant[t][i]);
    }
  }
  return inputs;
}

// --- the system under test -------------------------------------------------

// Router counters summed over the serving processes.
struct RouterTotals {
  uint64_t rejected = 0, answered = 0, batches = 0, sweeps = 0, reloads = 0;
  std::vector<uint64_t> answered_per_shard;

  RouterTotals Minus(const RouterTotals& base) const {
    RouterTotals d = *this;
    d.rejected -= base.rejected;
    d.answered -= base.answered;
    d.batches -= base.batches;
    d.sweeps -= base.sweeps;
    d.reloads -= base.reloads;
    for (size_t i = 0; i < d.answered_per_shard.size() &&
                       i < base.answered_per_shard.size();
         ++i) {
      d.answered_per_shard[i] -= base.answered_per_shard[i];
    }
    return d;
  }
};

// The in-process engine and the fleet behind one interface, so both
// workloads run the identical schedule.
class Service {
 public:
  virtual ~Service() = default;
  virtual StatusOr<AnswerFuture> Submit(const Query& query) = 0;
  virtual StatusOr<SnapshotPtr> Publish(const std::string& tenant,
                                        const StreamRelease& release) = 0;
  virtual StatusOr<RouterTotals> Totals() = 0;
  /// Stops serving and closes the stores (idempotent).
  virtual Status Stop() = 0;
  /// Store directories to reopen after Stop().
  virtual std::vector<std::string> StoreDirs() const = 0;
};

class EngineService : public Service {
 public:
  static StatusOr<std::unique_ptr<Service>> Create(const std::string& dir) {
    cksafe::DurableStoreOptions store;
    store.dir = dir;
    cksafe::QueryRouter::Options router;
    router.queue_capacity = kQueueDepth;
    auto service = std::unique_ptr<EngineService>(new EngineService(dir));
    CKSAFE_ASSIGN_OR_RETURN(
        service->engine_, cksafe::ServingEngine::CreateDurable(store, router));
    return std::unique_ptr<Service>(std::move(service));
  }
  StatusOr<AnswerFuture> Submit(const Query& query) override {
    return engine_->router()->Submit(query);
  }
  StatusOr<SnapshotPtr> Publish(const std::string& tenant,
                                const StreamRelease& release) override {
    return engine_->PublishRelease(tenant, release.release, release.num_rows);
  }
  StatusOr<RouterTotals> Totals() override {
    const cksafe::RouterStats s = engine_->router()->stats();
    RouterTotals t;
    t.rejected = s.rejected;
    t.answered = s.answered;
    t.batches = s.batches;
    t.sweeps = s.profile_sweeps + s.per_bucket_sweeps;
    t.reloads = s.snapshot_reloads;
    t.answered_per_shard = {s.answered};
    return t;
  }
  Status Stop() override {
    engine_.reset();
    return Status::OK();
  }
  std::vector<std::string> StoreDirs() const override { return {dir_}; }

 private:
  explicit EngineService(std::string dir) : dir_(std::move(dir)) {}
  std::string dir_;
  std::unique_ptr<cksafe::ServingEngine> engine_;
};

class FleetService : public Service {
 public:
  static StatusOr<std::unique_ptr<Service>> Create(const std::string& sockets,
                                                   const std::string& stores) {
    cksafe::ShardFleetOptions options;
    options.num_shards = 2;
    options.socket_dir = sockets;
    options.durable_root = stores;
    options.router_queue_capacity = kQueueDepth;
    options.max_in_flight_per_shard = kQueueDepth;
    auto service = std::unique_ptr<FleetService>(new FleetService(stores));
    CKSAFE_ASSIGN_OR_RETURN(service->fleet_,
                            cksafe::ShardFleet::Start(std::move(options)));
    // Each shard process on a CPU of its own (1 and 2), so a query's
    // wake-ups cross the same CPUs on every run.
    const std::vector<int> shards = ChildPids();
    for (size_t i = 0; i < shards.size(); ++i) PinProcess(shards[i], 1 + i);
    return std::unique_ptr<Service>(std::move(service));
  }
  StatusOr<AnswerFuture> Submit(const Query& query) override {
    return fleet_->Submit(query);
  }
  StatusOr<SnapshotPtr> Publish(const std::string& tenant,
                                const StreamRelease& release) override {
    return fleet_->Publish(tenant, release.release, release.num_rows);
  }
  StatusOr<RouterTotals> Totals() override {
    RouterTotals t;
    for (size_t shard = 0; shard < fleet_->num_shards(); ++shard) {
      CKSAFE_ASSIGN_OR_RETURN(cksafe::WireShardStats s,
                              fleet_->PingShard(shard));
      t.rejected += s.rejected;
      t.answered += s.answered;
      t.batches += s.batches;
      t.sweeps += s.profile_sweeps + s.per_bucket_sweeps;
      t.reloads += s.snapshot_reloads;
      t.answered_per_shard.push_back(s.answered);
    }
    return t;
  }
  Status Stop() override {
    if (fleet_ == nullptr) return Status::OK();
    Status status = fleet_->ShutdownAll();
    fleet_.reset();
    return status;
  }
  std::vector<std::string> StoreDirs() const override {
    return {stores_ + "/shard-0", stores_ + "/shard-1"};
  }

 private:
  explicit FleetService(std::string stores) : stores_(std::move(stores)) {}
  std::string stores_;
  std::unique_ptr<cksafe::ShardFleet> fleet_;
};

// --- verification ------------------------------------------------------------

// One OK answer, kept compactly until the phase's check.
struct AnswerRecord {
  uint32_t query;
  bool safe;
  uint64_t sequence;
  double disclosure;
  double negation;
  double log_r;
};

bool SameBuckets(const cksafe::Bucketization& a,
                 const cksafe::Bucketization& b) {
  if (a.num_buckets() != b.num_buckets()) return false;
  for (size_t i = 0; i < a.num_buckets(); ++i) {
    if (a.bucket(i).members != b.bucket(i).members ||
        a.bucket(i).histogram != b.bucket(i).histogram) {
      return false;
    }
  }
  return true;
}

// Which stream release every published (tenant, sequence) carries. A
// snapshot is checked against its release when it is added (its buckets
// must be the release's), so only the index is kept.
//
// A snapshot is servable as soon as the service has swapped it in, which
// is before Publish returns and the snapshot is added. The writer therefore
// holds publish_mutex() from Publish through Add, and Settle() waits for a
// publish in flight, so that every answer received before Settle() names a
// snapshot Find() knows.
class Registry {
 public:
  explicit Registry(const Inputs* inputs) : inputs_(inputs) {}

  std::mutex& publish_mutex() { return publish_mu_; }
  void Settle() const { std::lock_guard<std::mutex> lock(publish_mu_); }

  void Add(size_t tenant, const SnapshotPtr& snapshot, size_t stream_index) {
    const cksafe::Bucketization& release =
        inputs_->stream[tenant][stream_index].release.bucketization;
    const bool same = SameBuckets(snapshot->bucketization, release);
    std::lock_guard<std::mutex> lock(mu_);
    if (!same) ++mismatched_;
    entries_[{tenant, snapshot->sequence}] = stream_index;
  }
  // False when the sequence was never published.
  bool Find(size_t tenant, uint64_t sequence, size_t* stream_index) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find({tenant, sequence});
    if (it == entries_.end()) return false;
    *stream_index = it->second;
    return true;
  }
  /// Published snapshots whose buckets differ from their release.
  size_t mismatched() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mismatched_;
  }

 private:
  const Inputs* inputs_;
  mutable std::mutex publish_mu_;
  mutable std::mutex mu_;
  std::map<std::pair<size_t, uint64_t>, size_t> entries_;
  size_t mismatched_ = 0;
};

// The serving contract: every OK answer equals, exactly, what a fresh
// synchronous DisclosureAnalyzer over the named snapshot returns. Fresh
// answers are memoized per (tenant, stream release, k); the Registry has
// checked that every snapshot of a stream release holds its buckets.
class Verifier {
 public:
  Verifier(const Inputs* inputs, const Registry* registry)
      : inputs_(inputs), registry_(registry) {}

  // Returns the number of mismatching answers (each also reported).
  uint64_t Check(const std::vector<AnswerRecord>& records,
                 const std::string& phase, Report* report) {
    registry_->Settle();
    uint64_t mismatches = 0;
    for (const AnswerRecord& record : records) {
      const Query& query = inputs_->queries[record.query];
      const size_t tenant = TenantIndex(query.tenant);
      size_t stream_index = 0;
      if (!registry_->Find(tenant, record.sequence, &stream_index)) {
        ++mismatches;
        if (mismatches <= 3) {
          report->Fail(phase + ": answer names unpublished snapshot " +
                       std::to_string(record.sequence));
        }
        continue;
      }
      if (!Matches(query, record, tenant, stream_index)) {
        ++mismatches;
        if (mismatches <= 3) {
          report->Fail(phase + ": answer differs from a fresh analyzer (" +
                       query.tenant + ", snapshot " +
                       std::to_string(record.sequence) + ")");
        }
      }
    }
    return mismatches;
  }

 private:
  struct Fresh {
    std::optional<cksafe::WorstCaseDisclosure> worst;
    std::optional<cksafe::DisclosureProfile> profile;
    std::optional<std::vector<double>> per_bucket;
  };

  static size_t TenantIndex(const std::string& name) {
    for (size_t t = 0; t < kNumTenants; ++t) {
      if (name == kTenants[t].name) return t;
    }
    return 0;
  }

  bool Matches(const Query& query, const AnswerRecord& answer, size_t tenant,
               size_t stream_index) {
    auto& analyzer = analyzers_[{tenant, stream_index}];
    if (analyzer == nullptr) {
      analyzer = std::make_unique<DisclosureAnalyzer>(
          inputs_->stream[tenant][stream_index].release.bucketization);
    }
    Fresh& fresh = fresh_[std::make_tuple(tenant, stream_index, query.k)];
    switch (query.kind) {
      case QueryKind::kIsCkSafe:
      case QueryKind::kDisclosure: {
        if (!fresh.worst) {
          fresh.worst = analyzer->MaxDisclosureImplications(query.k);
        }
        const bool safe_ok =
            query.kind != QueryKind::kIsCkSafe ||
            answer.safe == cksafe::IsSafeLogRatio(fresh.worst->log_r_min,
                                                  query.c);
        return safe_ok && answer.disclosure == fresh.worst->disclosure &&
               answer.log_r == fresh.worst->log_r_min;
      }
      case QueryKind::kProfileAtK:
        if (!fresh.profile) fresh.profile = analyzer->Profile(query.k);
        return answer.disclosure == fresh.profile->implication[query.k] &&
               answer.negation == fresh.profile->negation[query.k];
      case QueryKind::kPerBucket:
        if (!fresh.per_bucket) {
          fresh.per_bucket = analyzer->PerBucketDisclosure(query.k);
        }
        return query.bucket < fresh.per_bucket->size() &&
               answer.disclosure == (*fresh.per_bucket)[query.bucket];
    }
    return false;
  }

  const Inputs* inputs_;
  const Registry* registry_;
  std::map<std::pair<size_t, size_t>, std::unique_ptr<DisclosureAnalyzer>>
      analyzers_;
  std::map<std::tuple<size_t, size_t, size_t>, Fresh> fresh_;
};

// --- the writer --------------------------------------------------------------

// Publishes the next stream release of every tenant every kSwapInterval
// while running and not paused; records each publish's duration.
class Writer {
 public:
  Writer(const Inputs* inputs, Service* service, Registry* registry,
         Tracer* tracer, size_t first_cpu, size_t last_cpu)
      : inputs_(inputs),
        service_(service),
        registry_(registry),
        tracer_(tracer),
        first_cpu_(first_cpu),
        last_cpu_(last_cpu) {}
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Launch() {
    thread_ = std::thread([this] {
      PinCurrentThread(first_cpu_, last_cpu_);
      Loop();
    });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  void SetPaused(bool paused) {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  /// Durations (ms) of every publish made.
  std::vector<double> SwapsMs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return swaps_;
  }
  const std::string& error() const { return error_; }
  size_t publishes() const { return publishes_; }

 private:
  void Loop() {
    Clock::time_point due = Clock::now() + kSwapInterval;
    for (size_t round = 1;; ++round) {
      bool paused = false;
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, due, [this] { return stopping_; })) return;
        paused = paused_;
      }
      due += kSwapInterval;
      if (paused) continue;
      const size_t index = round % kStreamReleases;
      for (size_t t = 0; t < kNumTenants; ++t) {
        std::lock_guard<std::mutex> publishing(registry_->publish_mutex());
        const auto t0 = Clock::now();
        StatusOr<SnapshotPtr> snapshot =
            service_->Publish(kTenants[t].name, inputs_->stream[t][index]);
        const auto t1 = Clock::now();
        tracer_->Record("writer.publish", t0, t1);
        if (!snapshot.ok()) {
          std::lock_guard<std::mutex> lock(mu_);
          error_ = snapshot.status().ToString();
          return;
        }
        registry_->Add(t, *snapshot, index);
        ++publishes_;
        std::lock_guard<std::mutex> lock(mu_);
        swaps_.push_back(SecondsBetween(t0, t1) * 1e3);
      }
    }
  }

  const Inputs* inputs_;
  Service* service_;
  Registry* registry_;
  Tracer* tracer_;
  const size_t first_cpu_;
  const size_t last_cpu_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool paused_ = false;
  std::vector<double> swaps_;
  std::string error_;
  std::atomic<size_t> publishes_{0};
  std::thread thread_;
};

// --- the run ---------------------------------------------------------------

struct PhaseOutcome {
  PhaseResult result;
  uint64_t mismatches = 0;
  RouterTotals router;  // deltas over the phase
  std::vector<double> submit_us;
};

class ServeRun {
 public:
  ServeRun(bool fleet, const Inputs* inputs, Service* service,
           const Registry* registry, Tracer* tracer, Report* report)
      : fleet_(fleet),
        inputs_(inputs),
        service_(service),
        tracer_(tracer),
        report_(report),
        verifier_(inputs, registry) {}

  // Runs one phase (closed loop when rate_qps == 0), then checks its
  // answers. `traced` times every Submit call (and samples spans).
  PhaseOutcome Phase(const std::string& name, double rate_qps, double seconds,
                     size_t max_requests, bool traced,
                     std::vector<AnswerRecord>* keep = nullptr) {
    PhaseOutcome outcome;
    std::vector<AnswerRecord> records;
    std::string first_error;
    const auto submit = [&](size_t i) {
      const Query& query = inputs_->queries[i % inputs_->queries.size()];
      if (!traced) return service_->Submit(query);
      const auto t0 = Clock::now();
      auto future = service_->Submit(query);
      const auto t1 = Clock::now();
      outcome.submit_us.push_back(UsBetween(t0, t1));
      if (i % 16 == 0) {
        tracer_->Record(fleet_ ? "shard.submit" : "serve.submit", t0, t1);
      }
      return future;
    };
    const auto done = [&](size_t i, StatusOr<QueryAnswer> answer,
                          double) -> Outcome {
      if (!answer.ok()) {
        if (answer.status().code() == cksafe::StatusCode::kResourceExhausted) {
          return Outcome::kShed;
        }
        if (first_error.empty()) first_error = answer.status().ToString();
        return Outcome::kFailed;
      }
      records.push_back(AnswerRecord{
          static_cast<uint32_t>(i % inputs_->queries.size()), answer->safe,
          answer->snapshot_sequence, answer->disclosure, answer->negation,
          answer->log_r});
      return Outcome::kOk;
    };
    records.reserve(rate_qps > 0.0
                        ? static_cast<size_t>(rate_qps * seconds) + 16
                        : max_requests);
    if (traced) outcome.submit_us.reserve(records.capacity());
    StatusOr<RouterTotals> before = service_->Totals();
    {
      ScopedSpan span(tracer_, "phase");
      outcome.result =
          rate_qps > 0.0
              ? RunOpenLoop(name, rate_qps, seconds, submit, done)
              : RunClosedLoop(name, seconds, max_requests, submit, done);
    }
    StatusOr<RouterTotals> after = service_->Totals();
    if (before.ok() && after.ok()) {
      outcome.router = after->Minus(*before);
    } else {
      report_->Fail("router stats unavailable");
    }
    if (!first_error.empty()) {
      std::fprintf(stderr, "perfbench: %s: first query error: %s\n",
                   name.c_str(), first_error.c_str());
    }
    outcome.mismatches = verifier_.Check(records, name, report_);
    if (keep != nullptr) *keep = std::move(records);
    const PhaseResult& r = outcome.result;
    std::fprintf(stderr,
                 "perfbench: %-9s %8.0f qps offered: %7llu sent, %7llu ok, "
                 "%llu failed, %llu shed, %llu mismatched; p50 %.1f us, p99 "
                 "%.1f us (windowed %.1f us), late p99 %.1f us, drain %.2f "
                 "ms\n",
                 name.c_str(), r.offered_qps,
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.succeeded),
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.shed),
                 static_cast<unsigned long long>(outcome.mismatches), r.P50(),
                 r.P99(), r.WindowedP99(), r.LateP99(), r.drain_ms);
    return outcome;
  }

 private:
  const bool fleet_;
  const Inputs* inputs_;
  Service* service_;
  Tracer* tracer_;
  Report* report_;
  Verifier verifier_;
};

bool Clean(const PhaseOutcome& o) {
  return o.result.shed == 0 && o.result.failed == 0 && o.mismatches == 0;
}

// A ladder rung passes when nothing was shed or failed, its p99 (windowed,
// so one host stall does not fail a rung) meets the limit and no backlog
// was left to drain past the limit.
bool Passes(const PhaseOutcome& o) {
  return Clean(o) && o.result.WindowedP99() <= kP99LimitUs &&
         o.result.drain_ms * 1e3 <= kP99LimitUs;
}

// Highest passing ladder rate; interpolated on p99 towards the first rate
// that misses the limit on latency alone, so the figure moves continuously
// with the system.
double Capacity(const std::vector<PhaseOutcome>& ladder) {
  double capacity = 0.0;
  for (size_t i = 0; i < ladder.size(); ++i) {
    if (!Passes(ladder[i])) {
      if (i == 0) return 0.0;
      const PhaseResult& lo = ladder[i - 1].result;
      const PhaseResult& hi = ladder[i].result;
      const double lo_p99 = lo.WindowedP99();
      const double hi_p99 = hi.WindowedP99();
      const bool latency_only =
          Clean(ladder[i]) && hi_p99 > kP99LimitUs && hi_p99 > lo_p99;
      if (latency_only) {
        const double frac =
            std::clamp((kP99LimitUs - lo_p99) / (hi_p99 - lo_p99), 0.0, 1.0);
        capacity += (hi.offered_qps - lo.offered_qps) * frac;
      }
      return capacity;
    }
    capacity = ladder[i].result.offered_qps;
  }
  return capacity;
}

// Out-of-band per-layer measurements over the stream (traced run only).
void MeasureOutOfBand(const Inputs& inputs, const ScratchDir& scratch,
                      bool fleet, const std::vector<AnswerRecord>& answers,
                      Report* report) {
  std::vector<double> profile_us, per_bucket_us, freeze_us, append_ms,
      snapshot_bytes;
  std::vector<std::vector<SnapshotPtr>> snapshots(kNumTenants);
  for (size_t t = 0; t < kNumTenants; ++t) {
    for (size_t r = 0; r < kStreamReleases; ++r) {
      const StreamRelease& release = inputs.stream[t][r];
      DisclosureAnalyzer analyzer(release.release.bucketization);
      auto t0 = Clock::now();
      const cksafe::DisclosureProfile profile = analyzer.Profile(kQueryMaxK);
      auto t1 = Clock::now();
      profile_us.push_back(UsBetween(t0, t1));
      const std::vector<double> per_bucket =
          analyzer.PerBucketDisclosure(kQueryMaxK);
      t0 = Clock::now();
      per_bucket_us.push_back(UsBetween(t1, t0));
      if (profile.implication.empty() || per_bucket.empty()) {
        report->Fail("empty profile on a stream release");
      }
      SnapshotPtr snapshot = cksafe::MakeReleaseSnapshot(
          r + 1, release.num_rows, release.release);
      freeze_us.push_back(UsBetween(t0, Clock::now()));
      cksafe::ByteWriter writer;
      cksafe::EncodeSnapshotInline(*snapshot, &writer);
      snapshot_bytes.push_back(static_cast<double>(writer.size()));
      snapshots[t].push_back(std::move(snapshot));
    }
  }
  {
    cksafe::DurableStoreOptions options;
    options.dir = scratch.Sub("append");
    auto store = cksafe::DurableStore::Open(options);
    if (!store.ok()) {
      report->Fail("scratch store: " + store.status().ToString());
      return;
    }
    for (size_t r = 0; r < kStreamReleases; ++r) {
      for (size_t t = 0; t < kNumTenants; ++t) {
        const auto t0 = Clock::now();
        const Status appended =
            (*store)->AppendPublish(kTenants[t].name, *snapshots[t][r]);
        append_ms.push_back(MsSince(t0));
        if (!appended.ok()) {
          report->Fail("scratch append: " + appended.ToString());
          return;
        }
      }
    }
  }
  report->Set("core.profile_sweep_us", Median(profile_us), "us");
  report->Set("core.per_bucket_sweep_us", Median(per_bucket_us), "us");
  report->Set("serve.freeze_us", Median(freeze_us), "us");
  report->Set("persist.append_ms", Median(append_ms), "ms");
  if (!fleet) return;

  // Wire codec of one query's request and response frames.
  std::vector<double> codec_us, query_bytes, answer_bytes;
  for (size_t i = 0; i < answers.size() && i < 4000; ++i) {
    const AnswerRecord& record = answers[i];
    cksafe::WireQueryRequest request;
    request.id = i + 1;
    request.query = inputs.queries[record.query];
    cksafe::WireQueryResponse response;
    response.id = i + 1;
    response.answer.snapshot_sequence = record.sequence;
    response.answer.safe = record.safe;
    response.answer.disclosure = record.disclosure;
    response.answer.negation = record.negation;
    response.answer.log_r = record.log_r;
    const auto t0 = Clock::now();
    const std::vector<uint8_t> request_frame =
        cksafe::EncodeFrame(cksafe::WireType::kQueryRequest,
                            cksafe::EncodeQueryRequest(request));
    auto request_in = cksafe::DecodeFrame(request_frame);
    auto request_back =
        request_in.ok() ? cksafe::DecodeQueryRequest(request_in->payload)
                        : StatusOr<cksafe::WireQueryRequest>(
                              request_in.status());
    const std::vector<uint8_t> response_frame =
        cksafe::EncodeFrame(cksafe::WireType::kQueryResponse,
                            cksafe::EncodeQueryResponse(response));
    auto response_in = cksafe::DecodeFrame(response_frame);
    auto response_back =
        response_in.ok() ? cksafe::DecodeQueryResponse(response_in->payload)
                         : StatusOr<cksafe::WireQueryResponse>(
                               response_in.status());
    codec_us.push_back(UsBetween(t0, Clock::now()));
    if (!request_back.ok() || !response_back.ok() ||
        request_back->query.k != request.query.k ||
        response_back->answer.disclosure != record.disclosure) {
      report->Fail("wire codec round trip failed");
      return;
    }
    query_bytes.push_back(static_cast<double>(request_frame.size()));
    answer_bytes.push_back(static_cast<double>(response_frame.size()));
  }
  report->Set("shard.codec_us", Median(codec_us), "us");
  report->Set("shard.query_bytes", Median(query_bytes), "bytes");
  report->Set("shard.answer_bytes", Median(answer_bytes), "bytes");
  report->Set("shard.snapshot_bytes", Median(snapshot_bytes), "bytes");
}

std::unique_ptr<Service> StartService(bool fleet, const ScratchDir& scratch,
                                      Report* report) {
  StatusOr<std::unique_ptr<Service>> service = [&] {
    if (fleet) return FleetService::Create(scratch.Sub("s"), scratch.Sub("d"));
    return EngineService::Create(scratch.Sub("d"));
  }();
  if (!service.ok()) {
    report->Fail("service start: " + service.status().ToString());
    return nullptr;
  }
  return std::move(service).value();
}

}  // namespace

void RunServeWorkload(const RunConfig& config, bool fleet, Tracer* tracer,
                      Report* report) {
  // Fixed placement keeps wake-up costs alike from run to run: the load
  // generator has CPU 0 to itself; the in-process router's worker (created
  // during set-up, inheriting the mask) shares CPU 1 with the writer, as a
  // shard's router shares its process with the shard's publish path; the
  // fleet's shard processes, links and writer share CPUs 1 and up.
  const size_t last_cpu = std::max<size_t>(config.nproc, 2) - 1;
  PinCurrentThread(1, fleet ? last_cpu : 1);

  // Set-up, at least kSetupReps times and kSetupMinS (median reported):
  // a fresh durable store, the service, inputs and release stream, and the
  // first release of every tenant. The last set-up is the one run.
  std::optional<Inputs> inputs;
  std::unique_ptr<ScratchDir> scratch;
  std::unique_ptr<Service> service;
  std::unique_ptr<Registry> registry;
  const std::vector<double> setup_s =
      TimeRepeated(kSetupReps, kSetupMinS, [&](size_t) -> bool {
        if (service != nullptr) {
          const Status stopped = service->Stop();
          if (!stopped.ok()) report->Fail("stop: " + stopped.ToString());
        }
        service.reset();
        registry.reset();
        inputs.reset();
        scratch = std::make_unique<ScratchDir>(config);
        if (!scratch->ok()) {
          report->Fail("cannot create a scratch directory");
          return false;
        }
        // The service first: the fleet forks its shards, and a shard that
        // inherited the inputs would hold them copy-on-write.
        service = StartService(fleet, *scratch, report);
        if (service == nullptr) return false;
        auto built = BuildInputs(config.seed);
        if (!built.ok()) {
          report->Fail("input generation: " + built.status().ToString());
          return false;
        }
        inputs = std::move(built).value();
        registry = std::make_unique<Registry>(&*inputs);
        for (size_t t = 0; t < kNumTenants; ++t) {
          auto snapshot =
              service->Publish(kTenants[t].name, inputs->stream[t][0]);
          if (!snapshot.ok()) {
            report->Fail("first publish: " + snapshot.status().ToString());
            return false;
          }
          registry->Add(t, *snapshot, 0);
        }
        return true;
      });
  if (!report->correct() || service == nullptr) return;

  ServeRun run(fleet, &*inputs, service.get(), registry.get(), tracer,
               report);
  PinCurrentThread(0, 0);
  Writer writer(&*inputs, service.get(), registry.get(), tracer, 1,
                fleet ? last_cpu : 1);
  const double seconds = config.seconds;
  const double reference_qps = fleet ? kFleetCapacityQps : kServeCapacityQps;

  // The traced run first answers a fixed query list untraced and traced,
  // with no writer, so the two passes must answer identically.
  double overhead = 0.0;
  if (config.trace) {
    std::vector<AnswerRecord> plain, traced;
    const PhaseOutcome a = run.Phase("untraced", 0.0, 0.0, kOverheadQueries,
                                     false, &plain);
    const PhaseOutcome b = run.Phase("traced", 0.0, 0.0, kOverheadQueries,
                                     true, &traced);
    overhead = b.result.P50() / a.result.P50() - 1.0;
    bool same = plain.size() == traced.size();
    for (size_t i = 0; same && i < plain.size(); ++i) {
      const AnswerRecord& x = plain[i];
      const AnswerRecord& y = traced[i];
      same = x.query == y.query && x.sequence == y.sequence &&
             x.safe == y.safe && x.disclosure == y.disclosure &&
             x.negation == y.negation && x.log_r == y.log_r;
    }
    if (!same) report->Fail("traced answers differ from untraced answers");
  }

  // The unloaded closed loop and the two fixed rates run as kSegments
  // interleaved segments each (unloaded with the writer paused), so slow
  // drifts of the host fall on all three alike; each figure is the median
  // over its segments.
  writer.Launch();
  std::vector<PhaseOutcome> unloaded, low, high;
  std::vector<AnswerRecord> high_answers;
  const double segment_s =
      seconds * (config.trace ? 1.0 - kLadderShare : 1.0) / kSegments;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    writer.SetPaused(true);
    unloaded.push_back(run.Phase("unloaded", 0.0, segment_s * kUnloadedShare,
                                 0, config.trace));
    writer.SetPaused(false);
    low.push_back(run.Phase("low", kLowFrac * reference_qps,
                            segment_s * kLowShare, 0, config.trace));
    high.push_back(run.Phase("high", kHighFrac * reference_qps,
                             segment_s * kHighShare, 0, config.trace,
                             seg == 0 ? &high_answers : nullptr));
  }
  writer.Stop();
  // Memory is read before the ladder: how far the ladder climbs, and so how
  // much backlog its last rung piles up, varies from run to run.
  const double peak_rss = PeakRssMb(ChildPids());
  // The ladder stops at the first rung that fails: the rungs above it
  // would only pile up backlog.
  std::vector<PhaseOutcome> ladder;
  const double rung_s =
      seconds * kLadderShare / static_cast<double>(std::size(kLadderFrac));
  for (double frac : kLadderFrac) {
    if (!config.trace) break;
    ladder.push_back(run.Phase("ladder", frac * reference_qps, rung_s, 0,
                               config.trace));
    if (!Passes(ladder.back())) break;
  }
  if (!writer.error().empty()) {
    report->Fail("writer publish failed: " + writer.error());
  }
  if (registry->mismatched() != 0) {
    report->Fail("a served snapshot differs from the release it froze");
  }
  const StatusOr<RouterTotals> final_totals = service->Totals();
  const Status stopped = service->Stop();
  if (!stopped.ok()) report->Fail("stop: " + stopped.ToString());

  // Counts: every phase's attempts; fail_frac over the fixed-rate phases.
  uint64_t attempted = 0, failed = 0, fixed_attempted = 0, fixed_failed = 0;
  const auto tally = [&](const std::vector<PhaseOutcome>& phases,
                         bool fixed_rate) {
    for (const PhaseOutcome& o : phases) {
      attempted += o.result.attempted;
      failed += o.result.failed + o.mismatches;
      if (fixed_rate) {
        fixed_attempted += o.result.attempted;
        fixed_failed += o.result.failed + o.result.shed + o.mismatches;
      }
    }
  };
  tally(unloaded, false);
  tally(low, true);
  tally(high, true);
  tally(ladder, false);
  report->Count(attempted, failed);
  std::fprintf(stderr, "perfbench: writer published %zu snapshots\n",
               writer.publishes());
  if (!report->correct()) return;

  const auto median_of = [](const std::vector<PhaseOutcome>& phases,
                            double (PhaseResult::*stat)() const) {
    std::vector<double> values;
    for (const PhaseOutcome& o : phases) values.push_back((o.result.*stat)());
    return Median(values);
  };
  if (!config.trace) {
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("fail_frac", SmoothedFailFrac(fixed_failed, fixed_attempted),
                "frac");
    report->Set("peak_rss_mb", peak_rss, "MiB");
    report->Set("op_cold_ms", median_of(unloaded, &PhaseResult::P50) / 1e3,
                "ms");
    report->Set("op_ms", median_of(high, &PhaseResult::P50) / 1e3, "ms");
    return;
  }

  // Reported ungated with the per-layer metrics: the low rate's median
  // (op_ms gates the loaded median, at the high rate), and tail latency,
  // capacity and the publish swap, which are too noisy run to run on a
  // shared virtual machine to gate (README.md, "Steadiness").
  report->Set("lat_p50_us.low", median_of(low, &PhaseResult::P50), "us");
  report->Set("publish_swap_ms", Median(writer.SwapsMs()), "ms");
  report->Set("lat_p99_us.low", median_of(low, &PhaseResult::P99), "us");
  report->Set("lat_p99_us.high", median_of(high, &PhaseResult::P99), "us");
  report->Set("capacity_qps", Capacity(ladder), "1/s");

  // Per-layer metrics of the traced run.
  RouterTotals h;
  std::vector<double> submit_us;
  uint64_t high_shed = 0;
  for (const PhaseOutcome& o : high) {
    h.answered += o.router.answered;
    h.batches += o.router.batches;
    h.sweeps += o.router.sweeps;
    h.reloads += o.router.reloads;
    h.rejected += o.router.rejected;
    high_shed += o.result.shed;
    submit_us.insert(submit_us.end(), o.submit_us.begin(), o.submit_us.end());
  }
  const double answered =
      static_cast<double>(std::max<uint64_t>(1, h.answered));
  report->Set(fleet ? "shard.submit_us" : "serve.submit_us", Median(submit_us),
              "us");
  report->Set("serve.batch_size",
              answered / static_cast<double>(std::max<uint64_t>(1, h.batches)),
              "count");
  report->Set("serve.sweeps_per_kq",
              static_cast<double>(h.sweeps) * 1e3 / answered, "count");
  report->Set("serve.reloads", static_cast<double>(h.reloads), "count");
  report->Set("serve.rejected", static_cast<double>(h.rejected), "count");
  double worst_late = 0.0;
  // Over the fixed-rate phases: ladder rungs past capacity are late by
  // design.
  for (const auto* phases : {&low, &high}) {
    for (const PhaseOutcome& o : *phases) {
      worst_late = std::max(worst_late, o.result.LateP99());
    }
  }
  report->Set("gen.late_p99_us", worst_late, "us");
  report->Set("trace.overhead_frac", overhead, "frac");
  if (fleet && final_totals.ok()) {
    const std::vector<uint64_t>& per_shard = final_totals->answered_per_shard;
    double total = 0.0, most = 0.0;
    for (uint64_t n : per_shard) {
      total += static_cast<double>(n);
      most = std::max(most, static_cast<double>(n));
    }
    report->Set("shard.imbalance",
                total > 0.0 ? most * static_cast<double>(per_shard.size()) /
                                  total
                            : 0.0,
                "x");
    report->Set("shard.rejected", static_cast<double>(h.rejected + high_shed),
                "count");
  }

  // Bytes per publish of the run's own store(s), reopened.
  uint64_t bytes = 0, records = 0;
  for (const std::string& dir : service->StoreDirs()) {
    cksafe::DurableStoreOptions options;
    options.dir = dir;
    auto store = cksafe::DurableStore::Open(options);
    if (!store.ok()) {
      report->Fail("reopen store: " + store.status().ToString());
      return;
    }
    const cksafe::RecoveryInfo& info = (*store)->recovery();
    bytes += info.manifest_bytes + info.segment_bytes;
    records += info.records;
  }
  report->Set("persist.bytes_per_publish",
              static_cast<double>(bytes) /
                  static_cast<double>(std::max<uint64_t>(1, records)),
              "bytes");
  MeasureOutOfBand(*inputs, *scratch, fleet, high_answers, report);
}

}  // namespace perfbench
