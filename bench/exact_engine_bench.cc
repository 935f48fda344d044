// Benchmarks exhibiting Theorem 8 (experiment E6 in DESIGN.md): the exact
// engine's cost is the number of consistent worlds, which grows factorially
// with bucket size — the reason the paper's polynomial DP matters. The last
// benchmarks put the exponential brute force and the O(|B| k^3) DP side by
// side on the same instance.

#include <benchmark/benchmark.h>

#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/exact/exact_engine.h"
#include "cksafe/exact/world_enumerator.h"

namespace cksafe {
namespace {

// One bucket holding `pairs` sensitive values twice each: n = 2*pairs,
// world count = (2p)! / 2^p.
Bucketization PairedBucket(size_t pairs) {
  Bucketization b(pairs);
  Bucket bucket;
  bucket.histogram.assign(pairs, 2);
  for (PersonId p = 0; p < 2 * pairs; ++p) bucket.members.push_back(p);
  CKSAFE_CHECK(b.AddBucket(std::move(bucket)).ok());
  return b;
}

// The paper's Figure 3 bucketization (two buckets of five, 1800 worlds).
Bucketization HospitalBuckets() {
  Bucketization b(6);
  Bucket males;
  males.members = {0, 1, 2, 3, 4};
  males.histogram = {2, 2, 1, 0, 0, 0};
  CKSAFE_CHECK(b.AddBucket(std::move(males)).ok());
  Bucket females;
  females.members = {5, 6, 7, 8, 9};
  females.histogram = {2, 0, 0, 1, 1, 1};
  CKSAFE_CHECK(b.AddBucket(std::move(females)).ok());
  return b;
}

void BM_WorldEnumeration(benchmark::State& state) {
  const size_t pairs = static_cast<size_t>(state.range(0));
  const Bucketization b = PairedBucket(pairs);
  const WorldEnumerator enumerator(b);
  for (auto _ : state) {
    size_t count = 0;
    enumerator.ForEachWorld([&](const std::vector<int32_t>&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
    state.counters["worlds"] = static_cast<double>(count);
  }
}
BENCHMARK(BM_WorldEnumeration)
    ->Unit(benchmark::kMillisecond)
    ->Arg(2)   //       6 worlds
    ->Arg(3)   //      90 worlds
    ->Arg(4)   //   2,520 worlds
    ->Arg(5);  // 113,400 worlds

void BM_ExactEngineCreate(benchmark::State& state) {
  const size_t pairs = static_cast<size_t>(state.range(0));
  const Bucketization b = PairedBucket(pairs);
  for (auto _ : state) {
    auto engine = ExactEngine::Create(b);
    CKSAFE_CHECK(engine.ok());
    benchmark::DoNotOptimize(engine->num_worlds());
  }
}
BENCHMARK(BM_ExactEngineCreate)
    ->Unit(benchmark::kMillisecond)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5);

// --- brute force vs. DP on the identical question ---

// Args: k, and 1 for the same-consequent family (Theorem 9) or 0 for all
// multisets of k simple implications.
void BM_BruteForceMaxDisclosure(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const bool same_consequent = state.range(1) != 0;
  const Bucketization b = HospitalBuckets();
  auto engine = ExactEngine::Create(b);
  CKSAFE_CHECK(engine.ok());
  for (auto _ : state) {
    auto result = engine->MaxDisclosureSimpleImplications(k, same_consequent);
    CKSAFE_CHECK(result.ok());
    benchmark::DoNotOptimize(result->disclosure);
  }
  state.SetLabel("exhaustive search over formulas");
}
BENCHMARK(BM_BruteForceMaxDisclosure)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"k", "same_consequent"})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({3, 1})
    ->Args({2, 0});

void BM_DpMaxDisclosure(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const Bucketization b = HospitalBuckets();
  for (auto _ : state) {
    DisclosureAnalyzer analyzer(b);
    benchmark::DoNotOptimize(analyzer.MaxDisclosureImplications(k).disclosure);
  }
  state.SetLabel("Theorem 9 + MINIMIZE2 DP");
}
BENCHMARK(BM_DpMaxDisclosure)->Arg(1)->Arg(2)->Arg(4);

void BM_ExactConditionalProbability(benchmark::State& state) {
  const Bucketization b = HospitalBuckets();
  auto engine = ExactEngine::Create(b);
  CKSAFE_CHECK(engine.ok());
  KnowledgeFormula phi;
  phi.AddSimple(SimpleImplication{Atom{6, 0}, Atom{1, 0}});
  for (auto _ : state) {
    auto p = engine->ConditionalProbability(Atom{1, 0}, phi);
    CKSAFE_CHECK(p.ok());
    benchmark::DoNotOptimize(*p);
  }
}
BENCHMARK(BM_ExactConditionalProbability);

}  // namespace
}  // namespace cksafe

BENCHMARK_MAIN();
