// publish: the paper's sanitizer (§3.4, Incognito with the (c,k)-safety
// check) through MultiPolicyPublisher, three tenants over synthetic Adult
// at the paper's 45,222 rows.
//
// A round is one cold PublishAll on a fresh publisher over a fresh copy of
// a seeded table, then kWarmBatches warm PublishAlls, each after AddBatch
// of held-back rows. Cold and warm use the DisclosureCache in opposite
// ways (cold fills it, warm mostly hits it). Rounds take the run's kTables
// seeded tables in turn for the run's seconds; every round must reproduce
// its table's first round exactly, and each table's first round is checked
// against a fresh analyzer.
//
// In the traced run every second pass over the tables is traced. Traced
// rounds install the benchmark's own batch profiler through the public
// MultiPolicySearchOptions::batch_profiler seam: the same three phases as
// the publisher's built-in one (bucketize, Minimize1BatchView
// Prepare/Freeze, Profile), built from public calls, with a span per phase
// per level and per node.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cksafe/adult/adult.h"
#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/lattice/lattice.h"
#include "cksafe/search/lattice_search.h"
#include "cksafe/stream/multi_policy_publisher.h"
#include "cksafe/util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cksafe::Bucketization;
using cksafe::DisclosureAnalyzer;
using cksafe::DisclosureCache;
using cksafe::DisclosureProfile;
using cksafe::GeneralizationLattice;
using cksafe::LatticeNode;
using cksafe::Minimize1BatchView;
using cksafe::Minimize2Workspace;
using cksafe::MultiPolicyPublisher;
using cksafe::PublishedRelease;
using cksafe::QuasiIdentifier;
using cksafe::Table;
using cksafe::TenantRelease;
using cksafe::ThreadPool;

constexpr size_t kColdRows = cksafe::kAdultTupleCount;
constexpr size_t kWarmBatches = 4;
constexpr size_t kBatchRows = 500;
constexpr size_t kSetupReps = 3;
constexpr double kSetupMinS = 0.5;
// Tables a run publishes in turn, each generated from the run's seed: the
// search's cost depends on the table (two seeds' cold publishes differed
// by 15% run after run), so a run's medians average over several.
constexpr size_t kTables = 4;
// Wall time of one round (a cold and kWarmBatches warm publishes) on a
// 4-CPU x86 host; sets how many rounds a run of --seconds makes.
constexpr double kNominalRoundS = 1.6;
constexpr size_t kSensitive = cksafe::kAdultOccupationColumn;

// The budget PublishAll profiles at: the largest k among kTenants.
constexpr size_t kMaxK = 4;

struct Inputs {
  Table cold{cksafe::Schema()};
  std::vector<std::vector<std::vector<int32_t>>> batches;
  std::vector<QuasiIdentifier> qis;
};

cksafe::StatusOr<Inputs> BuildInputs(uint64_t seed) {
  const Table full = cksafe::GenerateSyntheticAdult(
      kColdRows + kWarmBatches * kBatchRows, seed);
  Inputs inputs;
  CKSAFE_ASSIGN_OR_RETURN(inputs.qis, cksafe::AdultQuasiIdentifiers());
  inputs.cold = Table(full.schema());
  for (size_t row = 0; row < kColdRows; ++row) {
    CKSAFE_RETURN_IF_ERROR(inputs.cold.AppendRow(RowCells(full, row)));
  }
  for (size_t b = 0; b < kWarmBatches; ++b) {
    std::vector<std::vector<int32_t>> batch;
    for (size_t i = 0; i < kBatchRows; ++i) {
      batch.push_back(RowCells(full, kColdRows + b * kBatchRows + i));
    }
    inputs.batches.push_back(std::move(batch));
  }
  return inputs;
}

bool ReleasesIdentical(const PublishedRelease& a, const PublishedRelease& b) {
  if (a.node != b.node || a.published_sensitive != b.published_sensitive ||
      a.minimal_safe_nodes != b.minimal_safe_nodes ||
      a.worst_case.disclosure != b.worst_case.disclosure ||
      a.worst_case.log_r_min != b.worst_case.log_r_min ||
      a.utility.discernibility != b.utility.discernibility ||
      a.utility.loss != b.utility.loss ||
      a.bucketization.num_buckets() != b.bucketization.num_buckets()) {
    return false;
  }
  for (size_t i = 0; i < a.bucketization.num_buckets(); ++i) {
    const cksafe::Bucket& x = a.bucketization.bucket(i);
    const cksafe::Bucket& y = b.bucketization.bucket(i);
    if (x.members != y.members || x.histogram != y.histogram ||
        x.qi_label != y.qi_label) {
      return false;
    }
  }
  return true;
}

// The batch profiler of the traced rounds. Mirrors the publisher's built-in
// level batching phase for phase, with its own DisclosureCache living as
// long as the publisher (as the publisher's own cache does) and a fresh
// Minimize1BatchView per PublishAll (as PublishAll makes one).
class TracedBatchProfiler {
 public:
  TracedBatchProfiler(const MultiPolicyPublisher* publisher,
                      const std::vector<QuasiIdentifier>* qis, Tracer* tracer)
      : publisher_(publisher), qis_(qis), tracer_(tracer) {}

  struct PublishStats {
    size_t levels = 0;
    size_t nodes = 0;
    double level_ms = 0.0;       // Σ level spans
    double bucketize_ms = 0.0;   // Σ per-node bucketize spans
    double prepare_ms = 0.0;     // Σ Prepare/Freeze phase spans
    double sweep_ms = 0.0;       // Σ per-node Profile spans
    double parallel_wall_ms = 0.0;  // Σ walls of phases 1 and 3
    uint64_t shared_lookups = 0;
    uint64_t local_hits = 0;
  };

  void BeginPublish() {
    view_ = std::make_unique<Minimize1BatchView>(&cache_);
    stats_ = PublishStats{};
  }
  PublishStats EndPublish() {
    stats_.shared_lookups = view_->shared_lookups();
    stats_.local_hits = view_->local_hits();
    return stats_;
  }
  bool failed() const { return failed_.load(); }

  cksafe::NodeBatchProfiler AsBatchProfiler() {
    return [this](const std::vector<LatticeNode>& batch, ThreadPool* pool) {
      return ProfileLevel(batch, pool);
    };
  }

 private:
  struct NodeEval {
    std::optional<Bucketization> bucketization;
    std::optional<DisclosureAnalyzer> analyzer;
    double bucketize_ms = 0.0;
    double profile_ms = 0.0;
  };

  std::vector<std::optional<DisclosureProfile>> ProfileLevel(
      const std::vector<LatticeNode>& batch, ThreadPool* pool) {
    const Table& table = publisher_->table();
    const auto level_start = Clock::now();
    ScopedSpan level(tracer_, "search.level");
    ++stats_.levels;
    stats_.nodes += batch.size();

    std::vector<NodeEval> evals(batch.size());
    auto t0 = Clock::now();
    {
      ScopedSpan phase(tracer_, "phase.bucketize", level.id());
      cksafe::ParallelFor(pool, batch.size(), [&](size_t i) {
        ScopedSpan node(tracer_, "anon.bucketize_node", phase.id());
        const auto node_start = Clock::now();
        auto bucketization =
            cksafe::BucketizeAtNode(table, *qis_, batch[i], kSensitive);
        if (!bucketization.ok()) {
          failed_ = true;
          return;
        }
        evals[i].bucketization = std::move(bucketization).value();
        evals[i].analyzer.emplace(*evals[i].bucketization, &cache_,
                                  view_.get());
        evals[i].bucketize_ms = MsSince(node_start);
      });
    }
    auto t1 = Clock::now();
    stats_.parallel_wall_ms += SecondsBetween(t0, t1) * 1e3;
    {
      ScopedSpan phase(tracer_, "phase.prepare", level.id());
      view_->Thaw();
      for (const NodeEval& eval : evals) {
        if (!eval.analyzer.has_value()) continue;
        for (const cksafe::BucketStats& stats : eval.analyzer->bucket_stats()) {
          view_->Prepare(stats.counts, kMaxK + 1);
        }
      }
      view_->Freeze();
    }
    t0 = Clock::now();
    stats_.prepare_ms += SecondsBetween(t1, t0) * 1e3;
    std::vector<std::optional<DisclosureProfile>> profiles(batch.size());
    {
      ScopedSpan phase(tracer_, "phase.profile", level.id());
      cksafe::ParallelFor(pool, batch.size(), [&](size_t i) {
        if (!evals[i].analyzer.has_value()) return;
        ScopedSpan node(tracer_, "core.profile_node", phase.id());
        const auto node_start = Clock::now();
        thread_local Minimize2Workspace workspace;
        profiles[i] = evals[i].analyzer->Profile(kMaxK, &workspace,
                                                 /*with_negation=*/false);
        evals[i].profile_ms = MsSince(node_start);
      });
    }
    t1 = Clock::now();
    stats_.parallel_wall_ms += SecondsBetween(t0, t1) * 1e3;
    for (const NodeEval& eval : evals) {
      stats_.bucketize_ms += eval.bucketize_ms;
      stats_.sweep_ms += eval.profile_ms;
    }
    stats_.level_ms += MsSince(level_start);
    return profiles;
  }

  const MultiPolicyPublisher* publisher_;
  const std::vector<QuasiIdentifier>* qis_;
  Tracer* tracer_;
  DisclosureCache cache_;
  std::unique_ptr<Minimize1BatchView> view_;
  PublishStats stats_;
  std::atomic<bool> failed_{false};
};

// Round 0's releases: every release is (c,k)-safe under a fresh analyzer
// and every child of each minimal node is unsafe (minimality).
void CheckReleases(const Table& table, const std::vector<QuasiIdentifier>& qis,
                   const std::vector<TenantRelease>& releases,
                   const std::string& where, Report* report) {
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(qis);
  std::map<LatticeNode, std::unique_ptr<Bucketization>> children;
  for (size_t t = 0; t < releases.size(); ++t) {
    const TenantRelease& tenant = releases[t];
    if (!tenant.release.ok()) {
      report->Fail(where + ": tenant " + tenant.tenant + " not published: " +
                   tenant.release.status().ToString());
      continue;
    }
    const PublishedRelease& release = *tenant.release;
    DisclosureAnalyzer fresh(release.bucketization);
    if (!fresh.IsCkSafe(tenant.policy.c, tenant.policy.k)) {
      report->Fail(where + ": tenant " + tenant.tenant +
                   " release is not (c,k)-safe");
    }
    for (const LatticeNode& minimal : release.minimal_safe_nodes) {
      for (const LatticeNode& child : lattice.Children(minimal)) {
        auto& bucketization = children[child];
        if (bucketization == nullptr) {
          auto built = cksafe::BucketizeAtNode(table, qis, child, kSensitive);
          if (!built.ok()) {
            report->Fail(where + ": cannot bucketize a child node: " +
                         built.status().ToString());
            continue;
          }
          bucketization =
              std::make_unique<Bucketization>(std::move(built).value());
        }
        DisclosureAnalyzer child_analyzer(*bucketization);
        if (child_analyzer.IsCkSafe(tenant.policy.c, tenant.policy.k)) {
          report->Fail(where + ": tenant " + tenant.tenant +
                       " has a safe child below a minimal node");
        }
      }
    }
  }
}

struct PublishSample {
  size_t table = 0;  // index into the run's tables
  double wall_ms = 0.0;
  bool warm = false;
  bool traced = false;
  bool ok = true;
  cksafe::MultiPolicySearchStats search;
  MultiPolicyPublisher::BatchTableTraffic traffic;
  uint64_t cache_hits = 0;    // publisher cache deltas over the publish
  uint64_t cache_misses = 0;
  TracedBatchProfiler::PublishStats profiler;
};

class PublishRunner {
 public:
  PublishRunner(const RunConfig& config, const Inputs* inputs, size_t table,
                Tracer* tracer, Report* report)
      : config_(config),
        inputs_(inputs),
        table_(table),
        tracer_(tracer),
        report_(report) {}

  // One round over this runner's table: a cold publish and kWarmBatches
  // warm ones. `traced` installs the traced batch profiler. The first
  // round's releases are checked and kept; every later round must
  // reproduce them exactly.
  void Round(bool traced, ThreadPool* pool, size_t threads,
             std::vector<PublishSample>* samples) {
    MultiPolicyPublisher publisher(inputs_->cold, inputs_->qis, kSensitive,
                                   BaseOptions());
    for (const TenantSpec& tenant : kTenants) {
      publisher.AddTenant(tenant.name, tenant.c, tenant.k);
    }
    publisher.mutable_search_options()->pool = pool;
    publisher.mutable_search_options()->num_threads = threads;
    TracedBatchProfiler profiler(&publisher, &inputs_->qis, tracer_);
    if (traced) {
      publisher.mutable_search_options()->batch_profiler =
          profiler.AsBatchProfiler();
    }
    for (size_t p = 0; p <= kWarmBatches; ++p) {
      if (p > 0) {
        const cksafe::Status added =
            publisher.AddBatch(inputs_->batches[p - 1]);
        if (!added.ok()) {
          report_->Fail("AddBatch: " + added.ToString());
          return;
        }
      }
      PublishSample sample;
      sample.table = table_;
      sample.warm = p > 0;
      sample.traced = traced;
      const uint64_t hits0 = publisher.cache().hits();
      const uint64_t misses0 = publisher.cache().misses();
      if (traced) profiler.BeginPublish();
      cksafe::StatusOr<std::vector<TenantRelease>> releases = [&] {
        ScopedSpan span(traced ? tracer_ : nullptr, "stream.publish_all");
        const auto t0 = Clock::now();
        auto out = publisher.PublishAll();
        sample.wall_ms = MsSince(t0);
        return out;
      }();
      if (traced) sample.profiler = profiler.EndPublish();
      sample.search = publisher.last_search_stats();
      sample.traffic = publisher.last_table_traffic();
      sample.cache_hits = publisher.cache().hits() - hits0;
      sample.cache_misses = publisher.cache().misses() - misses0;
      ++attempted_;
      if (!releases.ok() || profiler.failed()) {
        ++failed_;
        sample.ok = false;
        report_->Fail("PublishAll failed: " +
                      (releases.ok() ? std::string("profiler bucketize error")
                                     : releases.status().ToString()));
        samples->push_back(sample);
        return;
      }
      // Outside the timed region: the correctness gate.
      if (reference_.size() <= p) {
        CheckReleases(publisher.table(), inputs_->qis, *releases,
                      "publish " + std::to_string(p), report_);
        reference_.push_back(std::move(releases).value());
      } else if (!SameAsReference(*releases, p)) {
        ++failed_;
        sample.ok = false;
        report_->Fail(std::string(traced ? "traced " : "") + "publish " +
                      std::to_string(p) +
                      " differs from the first round's releases");
      }
      samples->push_back(sample);
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  cksafe::PublisherOptions BaseOptions() const {
    cksafe::PublisherOptions base;
    base.seed = config_.seed;
    return base;
  }

  bool SameAsReference(const std::vector<TenantRelease>& releases,
                       size_t p) const {
    const std::vector<TenantRelease>& ref = reference_[p];
    if (ref.size() != releases.size()) return false;
    for (size_t t = 0; t < ref.size(); ++t) {
      if (ref[t].release.ok() != releases[t].release.ok()) return false;
      if (ref[t].release.ok() &&
          !ReleasesIdentical(*ref[t].release, *releases[t].release)) {
        return false;
      }
    }
    return true;
  }

  const RunConfig& config_;
  const Inputs* inputs_;
  size_t table_;
  Tracer* tracer_;
  Report* report_;
  std::vector<std::vector<TenantRelease>> reference_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

std::vector<double> WallsMs(const std::vector<PublishSample>& samples,
                            bool warm, bool traced) {
  std::vector<double> out;
  for (const PublishSample& s : samples) {
    if (s.ok && s.warm == warm && s.traced == traced) out.push_back(s.wall_ms);
  }
  return out;
}

}  // namespace

void RunPublishWorkload(const RunConfig& config, Tracer* tracer,
                        Report* report) {
  // Set-up: kTables seeded tables with their held-back batches, built at
  // least kSetupReps times and kSetupMinS (median reported); the last
  // build is used. It runs on one fixed CPU, as oracle's does; the
  // publishes then use every CPU.
  PinCurrentThread(config.nproc - 1, config.nproc - 1);
  std::vector<Inputs> tables;
  const std::vector<double> setup_s =
      TimeRepeated(kSetupReps, kSetupMinS, [&](size_t) -> bool {
        tables.clear();
        for (size_t i = 0; i < kTables; ++i) {
          auto built = BuildInputs(config.seed * kTables + i);
          if (!built.ok()) {
            report->Fail("input generation: " + built.status().ToString());
            return false;
          }
          tables.push_back(std::move(built).value());
        }
        return true;
      });
  if (tables.size() != kTables) return;
  PinCurrentThread(0, config.nproc - 1);

  const size_t threads = std::max<size_t>(1, config.nproc);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);

  std::vector<PublishRunner> runners;
  for (size_t i = 0; i < kTables; ++i) {
    runners.emplace_back(config, &tables[i], i, tracer, report);
  }
  // A fixed number of passes over the tables for the run's seconds (at
  // least two, so every run compares a repeat against each table's first
  // round, and the traced run, whose second pass is traced, has one of
  // each kind per table): the work, and so the attempted count, is the
  // same on every run, and a faster program finishes sooner.
  const size_t rounds =
      kTables * std::max<size_t>(2, static_cast<size_t>(std::lround(
                                        config.seconds /
                                        (kNominalRoundS * kTables))));
  std::vector<PublishSample> samples;
  for (size_t round = 0; round < rounds && report->correct(); ++round) {
    const bool traced = config.trace && (round / kTables) % 2 == 1;
    runners[round % kTables].Round(traced, pool.get(), threads, &samples);
  }
  uint64_t attempted = 0, failed = 0;
  for (const PublishRunner& runner : runners) {
    attempted += runner.attempted();
    failed += runner.failed();
  }
  report->Count(attempted, failed);
  std::fprintf(stderr, "perfbench: publish: %zu rounds, %zu publishes\n",
               rounds, samples.size());
  if (!report->correct()) return;

  if (!config.trace) {
    const std::vector<double> cold = WallsMs(samples, false, false);
    const std::vector<double> warm = WallsMs(samples, true, false);
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("fail_frac", SmoothedFailFrac(failed, attempted), "frac");
    report->Set("peak_rss_mb", PeakRssMb({}), "MiB");
    report->Set("op_cold_ms", Median(cold), "ms");
    report->Set("op_ms", Median(warm), "ms");
    return;
  }

  // Traced run: one-thread cold publishes of the first table for the
  // scaling figure.
  std::vector<double> serial_cold, parallel_cold;
  for (int i = 0; i < 2; ++i) {
    PublishRunner serial_runner(config, &tables[0], 0, tracer, report);
    std::vector<PublishSample> round;
    serial_runner.Round(false, nullptr, 1, &round);
    if (!round.empty()) serial_cold.push_back(round.front().wall_ms);
  }

  std::vector<double> levels, nodes, self_ms, idle, bucketize_ms, prepare_ms,
      sweep_ms, lookups, local_hits;
  // Table traffic of each table's untraced cold publishes.
  std::vector<MultiPolicyPublisher::BatchTableTraffic> table_traffic(kTables);
  for (const PublishSample& s : samples) {
    if (s.ok && !s.warm && !s.traced) {
      lookups.push_back(static_cast<double>(s.traffic.shared_lookups));
      local_hits.push_back(static_cast<double>(s.traffic.prepare_calls -
                                               s.traffic.shared_lookups));
      table_traffic[s.table] = s.traffic;
      if (s.table == 0) parallel_cold.push_back(s.wall_ms);
    }
  }
  for (const PublishSample& s : samples) {
    if (s.ok && !s.warm && s.traced) {
      const auto& p = s.profiler;
      levels.push_back(static_cast<double>(p.levels));
      nodes.push_back(static_cast<double>(p.nodes));
      self_ms.push_back(s.wall_ms - p.level_ms);
      bucketize_ms.push_back(p.bucketize_ms);
      prepare_ms.push_back(p.prepare_ms);
      sweep_ms.push_back(p.sweep_ms);
      idle.push_back(p.parallel_wall_ms > 0.0
                         ? 1.0 - (p.bucketize_ms + p.sweep_ms) /
                                     (static_cast<double>(threads) *
                                      p.parallel_wall_ms)
                         : 0.0);
      // Every cold publish of a table runs the same search, so the traced
      // profiler must resolve exactly the tables the built-in one did on
      // that table (same phases, same view protocol).
      const MultiPolicyPublisher::BatchTableTraffic& built_in =
          table_traffic[s.table];
      if (p.shared_lookups != built_in.shared_lookups ||
          p.local_hits != built_in.prepare_calls - built_in.shared_lookups) {
        report->Fail("traced profiler table traffic differs from the "
                     "built-in batch profiler's");
      }
    }
  }
  uint64_t warm_hits = 0, warm_lookups = 0;
  for (const PublishSample& s : samples) {
    if (s.ok && s.warm && !s.traced) {
      warm_hits += s.cache_hits;
      warm_lookups += s.cache_hits + s.cache_misses;
    }
  }
  const PublishSample& first = samples.front();
  const double node_count = std::max(1.0, Median(nodes));
  // The warm tail, from the traced run's untraced rounds.
  report->Set("publish_warm_tail_ms",
              TailValue(WallsMs(samples, true, false)), "ms");
  report->Set("search.levels", Median(levels), "count");
  report->Set("search.profiles",
              static_cast<double>(first.search.profiles_computed), "count");
  report->Set("search.shared_verdicts",
              static_cast<double>(first.search.shared_verdicts()), "count");
  report->Set("search.self_ms", Median(self_ms), "ms");
  report->Set("search.idle_frac", Median(idle), "frac");
  report->Set("search.speedup", Median(serial_cold) / Median(parallel_cold),
              "x");
  report->Set("anon.bucketize_ms", Median(bucketize_ms), "ms");
  report->Set("anon.bucketize_us_per_node",
              Median(bucketize_ms) * 1e3 / node_count, "us");
  report->Set("core.table_resolve_ms", Median(prepare_ms), "ms");
  report->Set("core.table_lookups", Median(lookups), "count");
  report->Set("core.table_local_hits", Median(local_hits), "count");
  report->Set("core.cache_hit_frac",
              warm_lookups == 0 ? 0.0
                                : static_cast<double>(warm_hits) /
                                      static_cast<double>(warm_lookups),
              "frac");
  report->Set("core.sweep_ms", Median(sweep_ms), "ms");
  report->Set("core.sweep_us_per_node", Median(sweep_ms) * 1e3 / node_count,
              "us");
  report->Set("trace.overhead_frac",
              Median(WallsMs(samples, false, true)) /
                      Median(WallsMs(samples, false, false)) -
                  1.0,
              "frac");
}

}  // namespace perfbench
