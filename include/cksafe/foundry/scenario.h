// Scenario catalog: declarative end-to-end workloads over the foundry.
//
// A scenario is one config — dataset shape, hierarchy shape, tenant
// policies, release cadence, delta stream, query mix — and ScenarioRunner
// drives it through the whole pipeline: TableFoundry → HierarchyFoundry →
// MultiPolicyPublisher (publish) → IncrementalAnalyzer (stream) →
// ServingEngine/QueryRouter (serve). The runner is also the verifier:
// every served answer is differential-checked on all fields with exact
// double equality against a fresh synchronous DisclosureAnalyzer over the
// snapshot the answer names (serve/answer_oracle), every streamed delta's
// profile against a from-scratch
// analyzer over the materialized state, and — at small worlds — the
// disclosure curves against the exact/ world-enumeration oracle. A
// scenario that runs to completion has therefore re-proved the library's
// bit-identity contracts on its workload; any divergence fails the run.
//
// The catalog ships the shapes ROADMAP.md's "as many scenarios as you can
// imagine" goal names first: heavy skew, deep hierarchies, high-churn
// streams, multi-policy tenant fleets, serving under concurrent snapshot
// swaps, sequential-release trajectories, and an exact-oracle small
// world. Each entry doubles as a `ctest -L scenario` integration test
// (per-scenario timeout budgets in CMakeLists.txt) and as a replayable
// bench config via `cksafe_cli scenario`.

#ifndef CKSAFE_FOUNDRY_SCENARIO_H_
#define CKSAFE_FOUNDRY_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cksafe/foundry/delta_foundry.h"
#include "cksafe/foundry/hierarchy_foundry.h"
#include "cksafe/foundry/table_foundry.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// One tenant's (c, k) contract.
struct ScenarioPolicy {
  std::string tenant;
  double c = 0.7;
  size_t k = 3;
};

/// Seeded query workload issued against the serving layer.
struct QueryMixConfig {
  uint64_t seed = 0x9e7a11ULL;
  /// Queries issued after each release round (sequential mode) or per
  /// reader per round (concurrent mode).
  size_t per_release = 32;
  /// Attacker powers are drawn from [0, max_k].
  size_t max_k = 4;
  /// Per-bucket audits probe bucket indices in [0, max_bucket_probe);
  /// probes beyond a snapshot's bucket count surface as per-query errors
  /// (counted, not fatal) — the router's error path is part of the mix.
  size_t max_bucket_probe = 2;
};

struct ScenarioConfig {
  std::string name;
  std::string summary;
  TableFoundryConfig table;
  HierarchyFoundryConfig hierarchy;
  /// Within-bucket permutation seed handed to the publisher.
  uint64_t publisher_seed = 0x5afe5afeULL;
  std::vector<ScenarioPolicy> policies;
  /// Rows are split evenly into this many batches; each batch is followed
  /// by a PublishAll (the sequential-release trajectory when > 1).
  size_t release_batches = 1;
  QueryMixConfig queries;
  /// Delta-stream leg: > 0 runs a DeltaFoundry stream through an
  /// IncrementalAnalyzer, differential-checking the profile after every
  /// op. 0 skips the leg.
  size_t delta_ops = 0;
  DeltaFoundryConfig deltas;
  size_t delta_profile_k = 3;
  /// Cross-check disclosure curves of every published snapshot small
  /// enough for world enumeration against the exact oracle; the run fails
  /// if no snapshot qualifies (the scenario promised a small world).
  bool check_exact = false;
  size_t exact_max_tuples = 10;
  /// Serve-under-swap mode: a live router worker, a writer thread
  /// re-publishing batches, and reader threads querying concurrently.
  /// Verification stays post-hoc and exact.
  bool concurrent = false;
  size_t reader_threads = 2;
};

/// What a completed run did (all verification already passed).
struct ScenarioReport {
  size_t releases = 0;                  ///< snapshots published
  size_t queries_answered = 0;          ///< OK answers from the router
  size_t query_errors = 0;              ///< per-query serving errors
  size_t answers_verified = 0;          ///< == queries_answered on success
  size_t exact_checks = 0;              ///< (snapshot, k) oracle comparisons
  size_t delta_ops_applied = 0;         ///< stream mutations applied
  size_t delta_profiles_verified = 0;   ///< per-op differential checks

  std::string ToString() const;
};

class ScenarioRunner {
 public:
  /// Runs one scenario; `scale` multiplies rows, ops, and query counts
  /// (bench runs scale up, smoke tests scale down). Returns Internal on
  /// any verification divergence.
  static StatusOr<ScenarioReport> Run(const ScenarioConfig& config,
                                      double scale = 1.0);
};

/// The shipped catalog (>= 6 scenarios, unique names).
const std::vector<ScenarioConfig>& ScenarioCatalog();

/// Catalog lookup by name; NotFound with the list of known names.
StatusOr<ScenarioConfig> FindScenario(std::string_view name);

}  // namespace cksafe

#endif  // CKSAFE_FOUNDRY_SCENARIO_H_
