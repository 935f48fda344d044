// Differential test for the exact engine's brute-force searches: the
// orbit-pruned enumeration in src/exact must return exactly what the full
// enumeration returns — the same disclosure (==), the same target atom and
// the same witness formula, atom for atom.
//
// The reference side below is the full enumeration as the engine ran it
// before the orbit rule: every tuple of the family in order, Bitset
// algebra, first strict improvement wins. It lives only here.
//
// Instances are seeded bucketizations whose buckets hold shuffled,
// interleaved person ids (as grouping a table by its quasi-identifier
// gives), so a bucket's lowest-ranked member is not its first listed one
// and dense person order interleaves the buckets.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "cksafe/exact/exact_engine.h"
#include "cksafe/util/random.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::SyntheticBuckets;

// --- Reference: the full enumeration ---------------------------------------

struct Space {
  const ExactEngine* engine = nullptr;
  size_t domain = 0;
  std::vector<PersonId> persons;  // ascending
  std::vector<bool> present;      // [dense person * domain + value]

  size_t num_atoms() const { return persons.size() * domain; }
  Atom AtomAt(size_t index) const {
    return Atom{persons[index / domain], static_cast<int32_t>(index % domain)};
  }
  const Bitset& Worlds(size_t index) const {
    return engine->AtomWorlds(AtomAt(index));
  }
};

Space MakeSpace(const ExactEngine& engine, const Bucketization& buckets) {
  Space space;
  space.engine = &engine;
  space.domain = engine.domain_size();
  for (const Bucket& b : buckets.buckets()) {
    for (PersonId p : b.members) space.persons.push_back(p);
  }
  std::sort(space.persons.begin(), space.persons.end());
  space.present.assign(space.num_atoms(), false);
  for (const Bucket& b : buckets.buckets()) {
    for (PersonId p : b.members) {
      const size_t dense = static_cast<size_t>(
          std::lower_bound(space.persons.begin(), space.persons.end(), p) -
          space.persons.begin());
      for (size_t s = 0; s < space.domain; ++s) {
        if (b.histogram[s] > 0) space.present[dense * space.domain + s] = true;
      }
    }
  }
  return space;
}

StatusOr<ExactDisclosure> ReferenceSimpleImplications(
    const Space& space, size_t k, bool same_consequent,
    BruteForceOptions options) {
  const size_t num_atoms = space.num_atoms();
  const size_t num_worlds = space.engine->num_worlds();
  ExactDisclosure best;
  bool found = false;
  auto consider = [&](const Bitset& sat,
                      const std::vector<SimpleImplication>& implications) {
    const size_t denom = sat.Count();
    if (denom == 0) return;
    auto scan_target = [&](const Bitset& target_bits, const Atom& target) {
      const size_t numer = Bitset::AndCount(sat, target_bits);
      const double p = static_cast<double>(numer) / static_cast<double>(denom);
      if (!found || p > best.disclosure) {
        found = true;
        best.disclosure = p;
        best.target = target;
        KnowledgeFormula formula;
        for (const SimpleImplication& imp : implications) {
          formula.AddSimple(imp);
        }
        best.formula = std::move(formula);
      }
    };
    if (options.all_targets) {
      for (size_t t = 0; t < num_atoms; ++t) {
        scan_target(space.Worlds(t), space.AtomAt(t));
      }
    } else {
      for (const SimpleImplication& imp : implications) {
        scan_target(space.engine->AtomWorlds(imp.consequent), imp.consequent);
      }
    }
  };

  std::vector<SimpleImplication> current;
  if (same_consequent) {
    for (size_t c = 0; c < num_atoms; ++c) {
      if (options.require_present_values && !space.present[c]) continue;
      const Atom consequent = space.AtomAt(c);
      std::function<void(size_t, const Bitset&)> rec = [&](size_t start,
                                                           const Bitset& sat) {
        if (current.size() == k) {
          consider(sat, current);
          return;
        }
        for (size_t a = start; a < num_atoms; ++a) {
          if (options.require_present_values && !space.present[a]) continue;
          const Atom antecedent = space.AtomAt(a);
          if (options.require_distinct_persons &&
              antecedent.person == consequent.person) {
            continue;
          }
          Bitset imp_bits = space.Worlds(a).Not();
          imp_bits |= space.Worlds(c);
          current.push_back(SimpleImplication{antecedent, consequent});
          rec(a, sat & imp_bits);
          current.pop_back();
        }
      };
      rec(0, Bitset(num_worlds, /*all_ones=*/true));
    }
  } else {
    const size_t num_pairs = num_atoms * num_atoms;
    std::function<void(size_t, const Bitset&)> rec = [&](size_t start,
                                                         const Bitset& sat) {
      if (current.size() == k) {
        consider(sat, current);
        return;
      }
      for (size_t pair = start; pair < num_pairs; ++pair) {
        if (options.require_present_values &&
            (!space.present[pair / num_atoms] ||
             !space.present[pair % num_atoms])) {
          continue;
        }
        const Atom antecedent = space.AtomAt(pair / num_atoms);
        const Atom consequent = space.AtomAt(pair % num_atoms);
        if (options.require_distinct_persons &&
            antecedent.person == consequent.person) {
          continue;
        }
        Bitset imp_bits = space.Worlds(pair / num_atoms).Not();
        imp_bits |= space.Worlds(pair % num_atoms);
        current.push_back(SimpleImplication{antecedent, consequent});
        rec(pair, sat & imp_bits);
        current.pop_back();
      }
    };
    rec(0, Bitset(num_worlds, /*all_ones=*/true));
  }
  if (!found) {
    return Status::Internal("no consistent formula found (empty instance?)");
  }
  return best;
}

StatusOr<ExactDisclosure> ReferenceNegations(const Space& space, size_t k,
                                             BruteForceOptions options) {
  const size_t num_atoms = space.num_atoms();
  ExactDisclosure best;
  bool found = false;
  std::vector<size_t> chosen;
  auto consider = [&](const Bitset& sat) {
    const size_t denom = sat.Count();
    if (denom == 0) return;
    for (size_t t = 0; t < num_atoms; ++t) {
      const size_t numer = Bitset::AndCount(sat, space.Worlds(t));
      const double p = static_cast<double>(numer) / static_cast<double>(denom);
      if (!found || p > best.disclosure) {
        found = true;
        best.disclosure = p;
        best.target = space.AtomAt(t);
        KnowledgeFormula formula;
        for (size_t index : chosen) {
          const Atom atom = space.AtomAt(index);
          formula.AddNegation(
              atom, (atom.value + 1) % static_cast<int32_t>(space.domain));
        }
        best.formula = std::move(formula);
      }
    }
  };
  std::function<void(size_t, const Bitset&)> rec = [&](size_t start,
                                                       const Bitset& sat) {
    if (chosen.size() == k) {
      consider(sat);
      return;
    }
    for (size_t a = start; a < num_atoms; ++a) {
      if (options.require_present_values && !space.present[a]) continue;
      chosen.push_back(a);
      rec(a + 1, sat & space.Worlds(a).Not());
      chosen.pop_back();
    }
  };
  rec(0, Bitset(space.engine->num_worlds(), /*all_ones=*/true));
  if (!found) return Status::Internal("no consistent negation set found");
  return best;
}

// --- Instances and comparison ----------------------------------------------

template <typename T>
void Shuffle(Rng* rng, std::vector<T>* items) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBelow(i)]);
  }
}

// `rows` persons with random sensitive values in `domain`, dealt into
// `num_buckets` non-empty buckets in shuffled id order; each bucket lists
// its members shuffled too.
SyntheticBuckets InterleavedBuckets(Rng* rng, size_t rows, size_t num_buckets,
                                    size_t domain) {
  const std::vector<std::string> kLabels = {"v0", "v1", "v2", "v3"};
  CKSAFE_CHECK_LE(domain, kLabels.size());
  const std::vector<std::string> labels(kLabels.begin(),
                                        kLabels.begin() + domain);
  Table table{Schema({AttributeDef::Categorical("S", labels)})};
  for (size_t r = 0; r < rows; ++r) {
    const auto value = static_cast<int32_t>(rng->NextBelow(domain));
    CKSAFE_CHECK(table.AppendRow({value}).ok());
  }
  std::vector<PersonId> ids(rows);
  for (size_t r = 0; r < rows; ++r) ids[r] = static_cast<PersonId>(r);
  Shuffle(rng, &ids);
  std::vector<std::vector<PersonId>> groups(num_buckets);
  for (size_t i = 0; i < rows; ++i) {
    const size_t b = i < num_buckets ? i : rng->NextBelow(num_buckets);
    groups[b].push_back(ids[i]);
  }
  for (auto& group : groups) Shuffle(rng, &group);
  auto bucketization = BucketizeExplicit(table, groups, 0);
  CKSAFE_CHECK(bucketization.ok()) << bucketization.status().ToString();
  return SyntheticBuckets{std::move(table), *std::move(bucketization)};
}

void ExpectSameFormula(const KnowledgeFormula& got,
                       const KnowledgeFormula& want) {
  ASSERT_EQ(got.k(), want.k());
  for (size_t i = 0; i < got.k(); ++i) {
    const BasicImplication& g = got.implications()[i];
    const BasicImplication& w = want.implications()[i];
    EXPECT_TRUE(g.antecedents == w.antecedents) << "implication " << i;
    EXPECT_TRUE(g.consequents == w.consequents) << "implication " << i;
  }
}

void ExpectSameResult(const StatusOr<ExactDisclosure>& got,
                      const StatusOr<ExactDisclosure>& want) {
  ASSERT_EQ(got.ok(), want.ok()) << (got.ok() ? want.status() : got.status());
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    return;
  }
  EXPECT_EQ(got->disclosure, want->disclosure);
  EXPECT_TRUE(got->target == want->target)
      << "target (" << got->target.person << "," << got->target.value
      << ") want (" << want->target.person << "," << want->target.value << ")";
  ExpectSameFormula(got->formula, want->formula);
}

BruteForceOptions OptionsFromMask(unsigned mask) {
  BruteForceOptions options;
  options.all_targets = (mask & 1) != 0;
  options.require_distinct_persons = (mask & 2) != 0;
  options.require_present_values = (mask & 4) != 0;
  return options;
}

std::string Describe(size_t trial, size_t k, unsigned mask) {
  return "trial " + std::to_string(trial) + " k=" + std::to_string(k) +
         " all_targets=" + std::to_string(mask & 1) +
         " distinct=" + std::to_string((mask >> 1) & 1) +
         " present=" + std::to_string((mask >> 2) & 1);
}

TEST(ExactSearchDifferentialTest, OrbitSearchMatchesFullEnumeration) {
  const uint64_t seed = testing::TestSeed(20261019);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(24);
  for (size_t trial = 0; trial < trials; ++trial) {
    const size_t rows = 3 + rng.NextBelow(4);            // 3-6 persons
    const size_t buckets = 1 + rng.NextBelow(std::min<size_t>(rows, 3));
    const size_t domain = 2 + rng.NextBelow(2);          // 2-3 values
    const SyntheticBuckets fixture =
        InterleavedBuckets(&rng, rows, buckets, domain);
    auto engine = ExactEngine::Create(fixture.bucketization);
    ASSERT_TRUE(engine.ok()) << engine.status();
    const Space space = MakeSpace(*engine, fixture.bucketization);

    for (unsigned mask = 0; mask < 8; ++mask) {
      const BruteForceOptions options = OptionsFromMask(mask);
      for (size_t k = 0; k <= 3; ++k) {
        SCOPED_TRACE(Describe(trial, k, mask));
        ExpectSameResult(
            engine->MaxDisclosureSimpleImplications(k, true, options),
            ReferenceSimpleImplications(space, k, true, options));
        ExpectSameResult(engine->MaxDisclosureNegations(k, options),
                         ReferenceNegations(space, k, options));
        if (k <= 2) {
          ExpectSameResult(
              engine->MaxDisclosureSimpleImplications(k, false, options),
              ReferenceSimpleImplications(space, k, false, options));
        }
      }
    }
  }
}

// The popcount path must not change a single field: counts are integers.
TEST(ExactSearchDifferentialTest, PopcountPathsGiveIdenticalWitnesses) {
  if (!PopcountPathUsable(PopcountPath::kHardware)) {
    GTEST_SKIP() << "no hardware popcount on this CPU";
  }
  const uint64_t seed = testing::TestSeed(20261020);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const PopcountPath active = SetPopcountPathForTest(PopcountPath::kHardware);
  for (size_t trial = 0; trial < testing::TestIters(6); ++trial) {
    const SyntheticBuckets fixture = InterleavedBuckets(&rng, 6, 2, 3);
    auto engine = ExactEngine::Create(fixture.bucketization);
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (size_t k = 0; k <= 3; ++k) {
      SCOPED_TRACE("trial " + std::to_string(trial) +
                   " k=" + std::to_string(k));
      SetPopcountPathForTest(PopcountPath::kPortable);
      auto portable = engine->MaxDisclosureSimpleImplications(k, true);
      SetPopcountPathForTest(PopcountPath::kHardware);
      auto hardware = engine->MaxDisclosureSimpleImplications(k, true);
      ExpectSameResult(hardware, portable);
    }
  }
  SetPopcountPathForTest(active);
}

}  // namespace
}  // namespace cksafe
