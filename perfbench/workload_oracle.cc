// oracle: the exact possible-worlds engine on small worlds, against the
// polynomial DP it certifies.
//
// The world set is fixed per seed: the paper's Figure 3 hospital
// bucketization plus kFoundryWorlds seeded foundry tables grouped by their
// quasi-identifier, each with kTargetWorlds consistent worlds, or close.
// One pass runs, for every world, ExactEngine::Create, the same-consequent
// simple-implication search and the negation search for every k <= kMaxK,
// and DisclosureRisk on fixed formulas (the `cksafe_cli audit` path). A run
// makes a fixed number of passes for its seconds; op_ms is the median
// pass and op_cold_ms the median of a pass's summed Create calls (what an
// audit pays before its first answer). The checks (brute force == DP
// within 1e-9, and every pass identical to the first) run outside the
// timed passes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/exact/exact_engine.h"
#include "cksafe/exact/world_enumerator.h"
#include "cksafe/foundry/table_foundry.h"
#include "cksafe/knowledge/parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cksafe::AttributeDef;
using cksafe::Bucketization;
using cksafe::DisclosureAnalyzer;
using cksafe::ExactDisclosure;
using cksafe::ExactEngine;
using cksafe::KnowledgeFormula;
using cksafe::Table;

constexpr size_t kMaxK = 2;
// The foundry worlds: of kCandidates seeded ten-row tables, those whose
// consistent-world counts are closest to kTargetWorlds. 720 is the count
// a ten-row table in three groups reaches most often near the size wanted,
// so nearly every seed finds kFoundryWorlds tables of exactly that count,
// and the cost of a pass (ExactEngine::Create most of all) does not vary
// with the seed. With three worlds closest to 1,500 instead, the counts
// the seeds found ran from 840 to 2,240 worlds, and a pass's summed Create
// time from 0.26 to 0.42 ms.
constexpr size_t kFoundryWorlds = 6;
constexpr size_t kCandidates = 600;
constexpr size_t kFoundryRows = 10;
constexpr double kTargetWorlds = 720;
// Wall time of one pass on a 4-CPU x86 host; sets how many passes a run of
// --seconds makes.
constexpr double kNominalPassS = 2.0;
constexpr double kTolerance = 1e-9;
constexpr size_t kSetupReps = 3;
constexpr double kSetupMinS = 0.5;

struct World {
  std::string name;
  Table table{cksafe::Schema()};
  size_t sensitive = 0;
  Bucketization bucketization{0};
  double worlds = 0.0;
  /// Fixed audit formulas (besides the DP witnesses added per pass).
  std::vector<KnowledgeFormula> formulas;
};

cksafe::StatusOr<World> HospitalWorld() {
  World world;
  world.name = "hospital";
  world.sensitive = 3;
  world.table = Table(cksafe::Schema({
      AttributeDef::Categorical("Zip", {"14850", "14853"}),
      AttributeDef::Numeric("Age", 21, 29),
      AttributeDef::Categorical("Sex", {"M", "F"}),
      AttributeDef::Categorical("Disease",
                                {"flu", "lung cancer", "mumps", "breast cancer",
                                 "ovarian cancer", "heart disease"}),
  }));
  struct Row {
    const char* name;
    const char* zip;
    const char* age;
    const char* sex;
    const char* disease;
  };
  const Row rows[] = {
      {"Bob", "14850", "23", "M", "flu"},
      {"Charlie", "14850", "24", "M", "flu"},
      {"Dave", "14850", "25", "M", "lung cancer"},
      {"Ed", "14850", "27", "M", "lung cancer"},
      {"Frank", "14853", "29", "M", "mumps"},
      {"Gloria", "14850", "21", "F", "flu"},
      {"Hannah", "14850", "22", "F", "flu"},
      {"Irma", "14853", "24", "F", "breast cancer"},
      {"Jessica", "14853", "26", "F", "ovarian cancer"},
      {"Karen", "14853", "28", "F", "heart disease"},
  };
  for (size_t i = 0; i < std::size(rows); ++i) {
    CKSAFE_RETURN_IF_ERROR(world.table.AppendRowFromText(
        {rows[i].zip, rows[i].age, rows[i].sex, rows[i].disease}));
    world.table.SetRowLabel(static_cast<cksafe::PersonId>(i), rows[i].name);
  }
  CKSAFE_ASSIGN_OR_RETURN(
      Bucketization bucketization,
      cksafe::BucketizeExplicit(world.table, {{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}},
                                world.sensitive));
  world.bucketization = std::move(bucketization);
  // Section 1's "if Hannah has the flu then Charlie has the flu" and a
  // two-line attacker file of the kind `cksafe_cli audit` reads.
  const cksafe::KnowledgeParser parser(world.table, world.sensitive);
  for (const char* text :
       {"t[Hannah].Disease = flu -> t[Charlie].Disease = flu\n",
        "t[Ed].Disease = flu -> t[Dave].Disease = lung cancer\n"
        "! t[Irma].Disease = heart disease\n"}) {
    CKSAFE_ASSIGN_OR_RETURN(KnowledgeFormula formula,
                            parser.ParseFormula(text));
    world.formulas.push_back(std::move(formula));
  }
  return world;
}

// A seeded foundry table grouped into buckets by its quasi-identifier.
cksafe::StatusOr<World> FoundryWorld(uint64_t seed, size_t rows) {
  cksafe::TableFoundryConfig config;
  config.seed = seed;
  config.num_rows = rows;
  config.quasi_identifiers = {
      cksafe::ColumnSpec{"G", 3, true, cksafe::ValueSkew::kUniform, 1}};
  config.sensitive =
      cksafe::ColumnSpec{"S", 4, true, cksafe::ValueSkew::kZipf, 1};
  config.correlate_sensitive = true;
  World world;
  world.name = "foundry-" + std::to_string(seed);
  CKSAFE_ASSIGN_OR_RETURN(world.table, cksafe::TableFoundry::Generate(config));
  world.sensitive = 1;
  std::vector<std::vector<cksafe::PersonId>> groups(3);
  for (size_t row = 0; row < world.table.num_rows(); ++row) {
    const auto person = static_cast<cksafe::PersonId>(row);
    groups[static_cast<size_t>(world.table.at(person, 0))].push_back(person);
  }
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const auto& g) { return g.empty(); }),
               groups.end());
  CKSAFE_ASSIGN_OR_RETURN(
      Bucketization bucketization,
      cksafe::BucketizeExplicit(world.table, groups, world.sensitive));
  world.bucketization = std::move(bucketization);
  return world;
}

cksafe::StatusOr<std::vector<World>> BuildWorlds(uint64_t seed) {
  std::vector<World> worlds;
  CKSAFE_ASSIGN_OR_RETURN(World hospital, HospitalWorld());
  worlds.push_back(std::move(hospital));
  // Of kCandidates seeded foundry worlds, the kFoundryWorlds whose
  // consistent-world counts are closest to kTargetWorlds (ties to the
  // earlier candidate), so a pass costs about the same whatever the seed.
  std::vector<std::pair<double, World>> candidates;
  for (uint64_t j = 0; j < kCandidates; ++j) {
    CKSAFE_ASSIGN_OR_RETURN(World world,
                            FoundryWorld(seed * 1000003ULL + j, kFoundryRows));
    if (world.bucketization.num_buckets() < 2) continue;
    world.worlds = cksafe::WorldEnumerator(world.bucketization).WorldCount();
    const double distance = std::fabs(std::log(world.worlds / kTargetWorlds));
    candidates.emplace_back(distance, std::move(world));
  }
  std::stable_sort(
      candidates.begin(), candidates.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (candidates.size() < kFoundryWorlds) {
    return cksafe::Status::NotFound("too few multi-bucket foundry worlds");
  }
  for (size_t i = 0; i < kFoundryWorlds; ++i) {
    worlds.push_back(std::move(candidates[i].second));
  }
  worlds.front().worlds =
      cksafe::WorldEnumerator(worlds.front().bucketization).WorldCount();
  return worlds;
}

// Everything one pass computes for one world.
struct WorldResult {
  std::vector<double> implication;  // brute force, per k
  std::vector<double> negation;     // brute force, per k
  std::vector<double> risk;         // DisclosureRisk per audited formula
  double witness_probability = 0.0; // Pr(dp target | B ∧ dp witness), k=max
  bool ok = true;
  std::string error;
};

struct PassTimes {
  uint64_t calls = 0;  // oracle calls made
  double pass_s = 0.0;
  double create_ms = 0.0;
  double search_ms = 0.0;
  std::vector<double> risk_us;
};

// The DP's answers, computed once at set-up (they are the reference).
struct Reference {
  std::vector<cksafe::WorstCaseDisclosure> implication;  // per k
  std::vector<double> negation;                          // per k
  KnowledgeFormula witness;  // the DP witness at kMaxK
};

std::vector<WorldResult> RunPass(const std::vector<World>& worlds,
                                 const std::vector<Reference>& refs,
                                 Tracer* tracer, PassTimes* times) {
  std::vector<WorldResult> results(worlds.size());
  const auto pass_start = Clock::now();
  ScopedSpan pass(tracer, "oracle.pass");
  for (size_t w = 0; w < worlds.size(); ++w) {
    const World& world = worlds[w];
    WorldResult& result = results[w];
    auto t0 = Clock::now();
    cksafe::StatusOr<ExactEngine> engine = [&] {
      ScopedSpan span(tracer, "exact.create", pass.id());
      cksafe::ExactEngineOptions options;
      options.max_worlds = 100000;
      return ExactEngine::Create(world.bucketization, options);
    }();
    auto t1 = Clock::now();
    times->create_ms += SecondsBetween(t0, t1) * 1e3;
    ++times->calls;
    if (!engine.ok()) {
      result.ok = false;
      result.error = engine.status().ToString();
      continue;
    }
    {
      ScopedSpan span(tracer, "exact.search", pass.id());
      for (size_t k = 0; k <= kMaxK; ++k) {
        auto brute = engine->MaxDisclosureSimpleImplications(
            k, /*same_consequent=*/true);
        auto negation = engine->MaxDisclosureNegations(k);
        if (!brute.ok() || !negation.ok()) {
          result.ok = false;
          result.error = (!brute.ok() ? brute.status() : negation.status())
                             .ToString();
          break;
        }
        result.implication.push_back(brute->disclosure);
        result.negation.push_back(negation->disclosure);
        times->calls += 2;
      }
    }
    t0 = Clock::now();
    times->search_ms += SecondsBetween(t1, t0) * 1e3;
    std::vector<const KnowledgeFormula*> audited;
    for (const KnowledgeFormula& formula : world.formulas) {
      audited.push_back(&formula);
    }
    audited.push_back(&refs[w].witness);
    for (const KnowledgeFormula* formula : audited) {
      const auto r0 = Clock::now();
      ScopedSpan span(tracer, "exact.risk", pass.id());
      auto risk = engine->DisclosureRisk(*formula);
      times->risk_us.push_back(UsBetween(r0, Clock::now()));
      ++times->calls;
      if (!risk.ok()) {
        result.ok = false;
        result.error = risk.status().ToString();
        break;
      }
      result.risk.push_back(risk->disclosure);
    }
    auto witness = engine->ConditionalProbability(
        refs[w].implication[kMaxK].target, refs[w].witness);
    if (!witness.ok()) {
      result.ok = false;
      result.error = witness.status().ToString();
      continue;
    }
    result.witness_probability = *witness;
    ++times->calls;
  }
  times->pass_s = SecondsBetween(pass_start, Clock::now());
  return results;
}

// Brute force vs DP (1e-9), and the audit-path identities.
void CheckPass(const std::vector<World>& worlds,
               const std::vector<Reference>& refs,
               const std::vector<WorldResult>& results, uint64_t* mismatches,
               Report* report) {
  for (size_t w = 0; w < worlds.size(); ++w) {
    const WorldResult& result = results[w];
    const Reference& ref = refs[w];
    const std::string where = "world " + worlds[w].name;
    if (!result.ok) {
      ++*mismatches;
      report->Fail(where + ": " + result.error);
      continue;
    }
    for (size_t k = 0; k <= kMaxK; ++k) {
      if (std::fabs(result.implication[k] - ref.implication[k].disclosure) >
          kTolerance) {
        ++*mismatches;
        report->Fail(where + ": brute-force implication maximum differs "
                             "from the DP at k=" + std::to_string(k));
      }
      if (std::fabs(result.negation[k] - ref.negation[k]) > kTolerance) {
        ++*mismatches;
        report->Fail(where + ": brute-force negation maximum differs from "
                             "the DP at k=" + std::to_string(k));
      }
    }
    // The DP witness attains the DP value, and no formula of L^k_basic
    // exceeds the DP maximum at its k.
    if (std::fabs(result.witness_probability -
                  ref.implication[kMaxK].disclosure) > kTolerance ||
        std::fabs(result.risk.back() - ref.implication[kMaxK].disclosure) >
            kTolerance) {
      ++*mismatches;
      report->Fail(where + ": the DP witness does not attain the DP value");
    }
    for (size_t f = 0; f + 1 < result.risk.size(); ++f) {
      const size_t k = worlds[w].formulas[f].k();
      DisclosureAnalyzer analyzer(worlds[w].bucketization);
      if (result.risk[f] >
          analyzer.MaxDisclosureImplications(k).disclosure + kTolerance) {
        ++*mismatches;
        report->Fail(where + ": an audited formula exceeds the DP bound");
      }
    }
  }
}

bool SameResults(const std::vector<WorldResult>& a,
                 const std::vector<WorldResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t w = 0; w < a.size(); ++w) {
    if (a[w].implication != b[w].implication ||
        a[w].negation != b[w].negation || a[w].risk != b[w].risk ||
        a[w].witness_probability != b[w].witness_probability) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunOracleWorkload(const RunConfig& config, Tracer* tracer,
                       Report* report) {
  // Single-threaded throughout: one fixed CPU keeps migrations out of the
  // figures.
  PinCurrentThread(config.nproc - 1, config.nproc - 1);
  std::vector<World> worlds;
  std::vector<Reference> refs;
  const std::vector<double> setup_s =
      TimeRepeated(kSetupReps, kSetupMinS, [&](size_t) -> bool {
        auto built = BuildWorlds(config.seed);
        if (!built.ok()) {
          report->Fail("world generation: " + built.status().ToString());
          return false;
        }
        worlds = std::move(built).value();
        return true;
      });
  if (!report->correct()) return;

  // The DP reference (the `core` side of the comparison), timed out of
  // band for core.dp_us.
  std::vector<double> dp_us;
  for (const World& world : worlds) {
    DisclosureAnalyzer analyzer(world.bucketization);
    Reference ref;
    for (size_t k = 0; k <= kMaxK; ++k) {
      const auto t0 = Clock::now();
      ref.implication.push_back(analyzer.MaxDisclosureImplications(k));
      dp_us.push_back(UsBetween(t0, Clock::now()));
      ref.negation.push_back(analyzer.MaxDisclosureNegations(k).disclosure);
    }
    ref.witness = ref.implication[kMaxK].ToFormula();
    refs.push_back(std::move(ref));
  }

  std::optional<std::vector<WorldResult>> first;
  std::vector<PassTimes> untraced, traced;
  uint64_t mismatches = 0;
  uint64_t attempted = 0;
  // A fixed number of passes for the run's seconds, as in publish.
  const size_t passes = std::max<size_t>(
      3, static_cast<size_t>(std::lround(config.seconds / kNominalPassS)));
  for (size_t pass = 0; pass < passes; ++pass) {
    const bool trace_pass = config.trace && pass % 2 == 1;
    PassTimes times;
    std::vector<WorldResult> results =
        RunPass(worlds, refs, trace_pass ? tracer : nullptr, &times);
    (trace_pass ? traced : untraced).push_back(times);
    attempted += times.calls;
    if (!first.has_value()) {
      CheckPass(worlds, refs, results, &mismatches, report);
      first = std::move(results);
    } else if (!SameResults(*first, results)) {
      ++mismatches;
      report->Fail(std::string(trace_pass ? "traced " : "") + "pass " +
                   std::to_string(pass) + " differs from the first pass");
    }
    if (!report->correct()) break;
  }
  report->Count(attempted, mismatches);
  std::fprintf(stderr, "perfbench: oracle: %zu worlds, %zu passes\n",
               worlds.size(), untraced.size() + traced.size());
  if (!report->correct()) return;

  const auto pass_seconds = [](const std::vector<PassTimes>& runs) {
    std::vector<double> out;
    for (const PassTimes& p : runs) out.push_back(p.pass_s);
    return out;
  };
  if (!config.trace) {
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("fail_frac", SmoothedFailFrac(mismatches, attempted), "frac");
    report->Set("peak_rss_mb", PeakRssMb({}), "MiB");
    std::vector<double> create_ms;
    for (const PassTimes& p : untraced) create_ms.push_back(p.create_ms);
    report->Set("op_cold_ms", Median(create_ms), "ms");
    report->Set("op_ms", Median(pass_seconds(untraced)) * 1e3, "ms");
    return;
  }
  double total_worlds = 0.0;
  for (const World& world : worlds) total_worlds += world.worlds;
  std::vector<double> create_ms, search_ms, risk_us;
  for (const PassTimes& p : traced) {
    create_ms.push_back(p.create_ms);
    search_ms.push_back(p.search_ms);
    risk_us.insert(risk_us.end(), p.risk_us.begin(), p.risk_us.end());
  }
  report->Set("exact.worlds", total_worlds, "count");
  report->Set("exact.create_ms", Median(create_ms), "ms");
  report->Set("exact.search_ms", Median(search_ms), "ms");
  report->Set("exact.risk_us", Median(risk_us), "us");
  report->Set("core.dp_us", Median(dp_us), "us");
  report->Set("trace.overhead_frac",
              Median(pass_seconds(traced)) / Median(pass_seconds(untraced)) -
                  1.0,
              "frac");
}

}  // namespace perfbench
