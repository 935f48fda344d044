#include "cksafe/exact/exact_engine.h"

#include <algorithm>
#include <functional>

#include "cksafe/exact/world_enumerator.h"
#include "cksafe/util/math_util.h"
#include "cksafe/util/string_util.h"

namespace cksafe {

StatusOr<ExactEngine> ExactEngine::Create(const Bucketization& bucketization,
                                          ExactEngineOptions options) {
  WorldEnumerator enumerator(bucketization);
  const double world_count = enumerator.WorldCount();
  if (world_count > static_cast<double>(options.max_worlds)) {
    return Status::ResourceExhausted(
        StrFormat("instance has %.3g consistent worlds, cap is %llu",
                  world_count,
                  static_cast<unsigned long long>(options.max_worlds)));
  }

  ExactEngine engine;
  engine.domain_size_ = bucketization.sensitive_domain_size();
  for (const Bucket& b : bucketization.buckets()) {
    for (PersonId p : b.members) engine.persons_.push_back(p);
  }
  std::sort(engine.persons_.begin(), engine.persons_.end());
  const size_t max_person =
      engine.persons_.empty() ? 0 : engine.persons_.back() + 1;
  engine.person_index_.assign(max_person, -1);
  for (size_t i = 0; i < engine.persons_.size(); ++i) {
    engine.person_index_[engine.persons_[i]] = static_cast<int32_t>(i);
  }
  // Orbit table: ranks follow the dense (ascending person) order.
  engine.num_buckets_ = bucketization.buckets().size();
  engine.slots_.resize(engine.persons_.size());
  for (size_t b = 0; b < engine.num_buckets_; ++b) {
    for (PersonId p : bucketization.buckets()[b].members) {
      engine.slots_[static_cast<size_t>(engine.person_index_[p])].bucket =
          static_cast<uint32_t>(b);
    }
  }
  std::vector<uint32_t> next_rank(engine.num_buckets_, 0);
  for (PersonSlot& slot : engine.slots_) slot.rank = next_rank[slot.bucket]++;

  const size_t n_worlds = static_cast<size_t>(world_count);
  engine.num_worlds_ = n_worlds;
  engine.atom_bits_.assign(engine.persons_.size() * engine.domain_size_,
                           Bitset(n_worlds));
  engine.present_.assign(engine.atom_bits_.size(), false);
  for (const Bucket& b : bucketization.buckets()) {
    for (PersonId p : b.members) {
      const size_t dense = static_cast<size_t>(engine.person_index_[p]);
      for (size_t s = 0; s < engine.domain_size_; ++s) {
        if (b.histogram[s] > 0) {
          engine.present_[dense * engine.domain_size_ + s] = true;
        }
      }
    }
  }

  size_t world_index = 0;
  enumerator.ForEachWorld([&](const std::vector<int32_t>& world) {
    CKSAFE_CHECK_LT(world_index, n_worlds);
    for (size_t i = 0; i < engine.persons_.size(); ++i) {
      const int32_t value = world[engine.persons_[i]];
      CKSAFE_CHECK_GE(value, 0);
      engine.atom_bits_[i * engine.domain_size_ + static_cast<size_t>(value)]
          .Set(world_index);
    }
    ++world_index;
    return true;
  });
  CKSAFE_CHECK_EQ(world_index, n_worlds);
  return engine;
}

size_t ExactEngine::AtomIndex(const Atom& atom) const {
  CKSAFE_CHECK_LT(atom.person, person_index_.size());
  const int32_t dense = person_index_[atom.person];
  CKSAFE_CHECK_GE(dense, 0) << "person not in bucketization";
  CKSAFE_CHECK_GE(atom.value, 0);
  CKSAFE_CHECK_LT(static_cast<size_t>(atom.value), domain_size_);
  return static_cast<size_t>(dense) * domain_size_ +
         static_cast<size_t>(atom.value);
}

const Bitset& ExactEngine::AtomWorlds(const Atom& atom) const {
  return atom_bits_[AtomIndex(atom)];
}

Bitset ExactEngine::FormulaWorlds(const KnowledgeFormula& formula) const {
  Bitset result(num_worlds_, /*all_ones=*/true);
  for (const BasicImplication& imp : formula.implications()) {
    // (∧ antecedents) → (∨ consequents) == ¬(∧ antecedents) ∨ (∨ consequents)
    Bitset antecedent(num_worlds_, /*all_ones=*/true);
    for (const Atom& a : imp.antecedents) antecedent &= AtomWorlds(a);
    Bitset holds = antecedent.Not();
    for (const Atom& b : imp.consequents) holds |= AtomWorlds(b);
    result &= holds;
  }
  return result;
}

bool ExactEngine::IsConsistent(const KnowledgeFormula& formula) const {
  return FormulaWorlds(formula).Any();
}

uint64_t ExactEngine::CountWorlds(const KnowledgeFormula& formula) const {
  return FormulaWorlds(formula).Count();
}

StatusOr<double> ExactEngine::ConditionalProbability(
    const Atom& target, const KnowledgeFormula& formula) const {
  const Bitset sat = FormulaWorlds(formula);
  const size_t denom = sat.Count();
  if (denom == 0) {
    return Status::FailedPrecondition(
        "formula is inconsistent with the bucketization");
  }
  const size_t numer = Bitset::AndCount(sat, AtomWorlds(target));
  return static_cast<double>(numer) / static_cast<double>(denom);
}

StatusOr<ExactDisclosure> ExactEngine::DisclosureRisk(
    const KnowledgeFormula& formula) const {
  const Bitset sat = FormulaWorlds(formula);
  const size_t denom = sat.Count();
  if (denom == 0) {
    return Status::FailedPrecondition(
        "formula is inconsistent with the bucketization");
  }
  ExactDisclosure best;
  best.formula = formula;
  for (size_t i = 0; i < persons_.size(); ++i) {
    for (size_t s = 0; s < domain_size_; ++s) {
      const size_t numer =
          Bitset::AndCount(sat, atom_bits_[i * domain_size_ + s]);
      const double p = static_cast<double>(numer) / static_cast<double>(denom);
      if (p > best.disclosure) {
        best.disclosure = p;
        best.target = Atom{persons_[i], static_cast<int32_t>(s)};
      }
    }
  }
  return best;
}

namespace {

Status TooManyFormulas(double formula_count, uint64_t max_formulas) {
  return Status::ResourceExhausted(
      StrFormat("brute force would evaluate %.3g formulas, cap is %llu",
                formula_count, static_cast<unsigned long long>(max_formulas)));
}

}  // namespace

// One brute-force search over simple implications or negations.
//
// Tuples are enumerated in the full family's order: (consequent,
// antecedents...) or (implication pairs...) or (negated atoms...), each
// list ascending, then the target atom. Two things keep it cheap:
//
//  * Orbit rule. A tuple is visited only when each person it brings in,
//    read left to right, is already in it or is the lowest-ranked unused
//    member of its bucket; `used_[b]` counts how many of bucket b's lowest
//    ranks the current prefix holds, so the rule is rank <= used_[b].
//    Persons of one bucket are exchangeable (swapping two maps consistent
//    worlds onto consistent worlds), so if the first maximizer in
//    enumeration order broke the rule at a new person q, swapping q with
//    the lower-ranked unused q' would give a maximizer that sorts earlier:
//    the prefix is untouched and q's atom gets smaller. Hence the first
//    maximizer obeys the rule, and the strict-improvement scan below
//    returns it, the same witness the full enumeration returns.
//  * Flat rows. The satisfying-world set of each prefix lives in one
//    reused row per depth, the same-consequent implications (¬a ∨ c) are
//    hoisted into one word array per consequent, and counts go through
//    the runtime-selected popcount of util/bitset.
class ExactEngine::OrbitSearch {
 public:
  enum class Family { kSameConsequent, kGeneral, kNegations };

  OrbitSearch(const ExactEngine& engine, Family family, size_t k,
              const BruteForceOptions& options)
      : engine_(engine),
        family_(family),
        k_(k),
        options_(options),
        domain_(engine.domain_size_),
        num_atoms_(engine.persons_.size() * engine.domain_size_),
        words_((engine.num_worlds_ + 63) / 64),
        rows_((k + 1) * words_, ~0ULL),
        chosen_(k),
        used_(engine.num_buckets_, 0) {
    const size_t tail = engine.num_worlds_ % 64;
    if (tail != 0) rows_[words_ - 1] = (1ULL << tail) - 1;
  }

  StatusOr<ExactDisclosure> Run() {
    switch (family_) {
      case Family::kSameConsequent:
        RunSameConsequent();
        break;
      case Family::kGeneral:
        ExtendGeneral(0, 0);
        break;
      case Family::kNegations:
        ExtendNegations(0, 0);
        break;
    }
    if (!found_) {
      return Status::Internal(family_ == Family::kNegations
                                  ? "no consistent negation set found"
                                  : "no consistent formula found (empty "
                                    "instance?)");
    }
    return std::move(best_);
  }

 private:
  uint64_t* Row(size_t depth) { return rows_.data() + depth * words_; }
  const uint64_t* AtomRow(size_t atom) const {
    return engine_.atom_bits_[atom].words();
  }
  Atom AtomAt(size_t atom) const {
    return Atom{engine_.persons_[atom / domain_],
                static_cast<int32_t>(atom % domain_)};
  }
  bool Skip(size_t atom) const {
    return options_.require_present_values && !engine_.present_[atom];
  }
  // The last atom of `atom`'s person: a loop that resumes after it moves on
  // to the next person.
  size_t LastAtomOfPerson(size_t atom) const {
    return atom - atom % domain_ + domain_ - 1;
  }

  // The orbit rule for a person at the next tuple position. On success
  // `*entered` says whether the person is new (undo with Leave).
  bool Admit(size_t person, bool* entered) {
    const PersonSlot& slot = engine_.slots_[person];
    uint32_t& used = used_[slot.bucket];
    if (slot.rank > used) return false;
    *entered = slot.rank == used;
    if (*entered) ++used;
    return true;
  }
  void Leave(size_t person) { --used_[engine_.slots_[person].bucket]; }
  bool InOrbit(size_t person) const {
    const PersonSlot& slot = engine_.slots_[person];
    return slot.rank <= used_[slot.bucket];
  }

  void RunSameConsequent() {
    if (k_ > 0) implications_.resize(num_atoms_ * words_);
    for (size_t c = 0; c < num_atoms_; ++c) {
      if (Skip(c)) continue;
      const size_t person = c / domain_;
      bool entered = false;
      if (!Admit(person, &entered)) {
        c = LastAtomOfPerson(c);
        continue;
      }
      consequent_ = c;
      const uint64_t* consequent = AtomRow(c);
      for (size_t a = 0; a < num_atoms_ && k_ > 0; ++a) {
        const uint64_t* antecedent = AtomRow(a);
        uint64_t* out = implications_.data() + a * words_;
        for (size_t w = 0; w < words_; ++w) {
          out[w] = ~antecedent[w] | consequent[w];
        }
      }
      ExtendSameConsequent(0, 0);
      if (entered) Leave(person);
    }
  }

  void ExtendSameConsequent(size_t depth, size_t start) {
    const uint64_t* sat = Row(depth);
    if (depth == k_) {
      Leaf(sat);
      return;
    }
    uint64_t* next = Row(depth + 1);
    const size_t consequent_person = consequent_ / domain_;
    for (size_t a = start; a < num_atoms_; ++a) {
      if (Skip(a)) continue;
      const size_t person = a / domain_;
      if (options_.require_distinct_persons && person == consequent_person) {
        continue;
      }
      bool entered = false;
      if (!Admit(person, &entered)) {
        a = LastAtomOfPerson(a);
        continue;
      }
      const uint64_t* implication = implications_.data() + a * words_;
      for (size_t w = 0; w < words_; ++w) next[w] = sat[w] & implication[w];
      chosen_[depth] = a;
      ExtendSameConsequent(depth + 1, a);
      if (entered) Leave(person);
    }
  }

  // Pairs are indexed antecedent * num_atoms + consequent, the antecedent's
  // person entering the tuple before the consequent's.
  void ExtendGeneral(size_t depth, size_t start) {
    const uint64_t* sat = Row(depth);
    if (depth == k_) {
      Leaf(sat);
      return;
    }
    uint64_t* next = Row(depth + 1);
    for (size_t a = start / num_atoms_; a < num_atoms_; ++a) {
      if (Skip(a)) continue;
      const size_t a_person = a / domain_;
      bool a_entered = false;
      if (!Admit(a_person, &a_entered)) {
        a = LastAtomOfPerson(a);
        continue;
      }
      const uint64_t* antecedent = AtomRow(a);
      const size_t c_begin = a == start / num_atoms_ ? start % num_atoms_ : 0;
      for (size_t c = c_begin; c < num_atoms_; ++c) {
        if (Skip(c)) continue;
        const size_t c_person = c / domain_;
        if (options_.require_distinct_persons && c_person == a_person) {
          continue;
        }
        bool c_entered = false;
        if (!Admit(c_person, &c_entered)) {
          c = LastAtomOfPerson(c);
          continue;
        }
        const uint64_t* consequent = AtomRow(c);
        for (size_t w = 0; w < words_; ++w) {
          next[w] = sat[w] & (~antecedent[w] | consequent[w]);
        }
        chosen_[depth] = a * num_atoms_ + c;
        ExtendGeneral(depth + 1, chosen_[depth]);
        if (c_entered) Leave(c_person);
      }
      if (a_entered) Leave(a_person);
    }
  }

  // Combinations, no repetition: a duplicated negation is redundant.
  void ExtendNegations(size_t depth, size_t start) {
    const uint64_t* sat = Row(depth);
    if (depth == k_) {
      Leaf(sat);
      return;
    }
    uint64_t* next = Row(depth + 1);
    for (size_t a = start; a < num_atoms_; ++a) {
      if (Skip(a)) continue;
      const size_t person = a / domain_;
      bool entered = false;
      if (!Admit(person, &entered)) {
        a = LastAtomOfPerson(a);
        continue;
      }
      const uint64_t* atom = AtomRow(a);
      for (size_t w = 0; w < words_; ++w) next[w] = sat[w] & ~atom[w];
      chosen_[depth] = a;
      ExtendNegations(depth + 1, a + 1);
      if (entered) Leave(person);
    }
  }

  // Scores the complete tuple whose satisfying worlds are `sat`.
  void Leaf(const uint64_t* sat) {
    const size_t denom = PopcountWords(sat, words_);
    if (denom == 0) return;  // inconsistent knowledge: conditioning undefined
    if (family_ == Family::kNegations || options_.all_targets) {
      // Absent values hold in no world, so their probability is 0 and
      // cannot be the maximum: some admitted person (every bucket's rank 0
      // is) has a value with numer >= 1 in any world of `sat`.
      for (size_t person = 0; person * domain_ < num_atoms_; ++person) {
        if (!InOrbit(person)) continue;
        for (size_t t = person * domain_; t < (person + 1) * domain_; ++t) {
          if (!engine_.present_[t]) continue;
          Offer(AndPopcountWords(sat, AtomRow(t), words_), denom, t);
        }
      }
    } else if (family_ == Family::kSameConsequent) {
      if (k_ > 0) {
        Offer(AndPopcountWords(sat, AtomRow(consequent_), words_), denom,
              consequent_);
      }
    } else {
      for (size_t i = 0; i < k_; ++i) {
        const size_t c = chosen_[i] % num_atoms_;
        Offer(AndPopcountWords(sat, AtomRow(c), words_), denom, c);
      }
    }
  }

  // Keeps the first tuple attaining the maximum (strict improvement).
  void Offer(size_t numer, size_t denom, size_t target) {
    const double p = static_cast<double>(numer) / static_cast<double>(denom);
    if (found_ && !(p > best_.disclosure)) return;
    found_ = true;
    best_.disclosure = p;
    best_.target = AtomAt(target);
    KnowledgeFormula formula;
    for (size_t i = 0; i < k_; ++i) {
      switch (family_) {
        case Family::kSameConsequent:
          formula.AddSimple(
              SimpleImplication{AtomAt(chosen_[i]), AtomAt(consequent_)});
          break;
        case Family::kGeneral:
          formula.AddSimple(SimpleImplication{AtomAt(chosen_[i] / num_atoms_),
                                              AtomAt(chosen_[i] % num_atoms_)});
          break;
        case Family::kNegations: {
          const Atom atom = AtomAt(chosen_[i]);
          formula.AddNegation(
              atom, (atom.value + 1) % static_cast<int32_t>(domain_));
          break;
        }
      }
    }
    best_.formula = std::move(formula);
  }

  const ExactEngine& engine_;
  const Family family_;
  const size_t k_;
  const BruteForceOptions options_;
  const size_t domain_;
  const size_t num_atoms_;
  const size_t words_;
  std::vector<uint64_t> rows_;          // [depth * words_ + w], row 0 all ones
  std::vector<uint64_t> implications_;  // [a * words_ + w]: ¬a ∨ consequent_
  std::vector<size_t> chosen_;          // atom or pair index per depth
  std::vector<uint32_t> used_;          // per bucket: ranks held by the prefix
  size_t consequent_ = 0;
  bool found_ = false;
  ExactDisclosure best_;
};

StatusOr<ExactDisclosure> ExactEngine::MaxDisclosureSimpleImplications(
    size_t k, bool same_consequent, BruteForceOptions options) const {
  const size_t num_atoms = persons_.size() * domain_size_;
  // Formula count of the full family (the orbit rule visits fewer, but the
  // cap keeps its meaning): multisets of implications.
  //   same consequent: num_atoms consequents x C(num_atoms + k - 1, k)
  //   general: C(num_atoms^2 + k - 1, k)
  double formula_count;
  if (same_consequent) {
    formula_count = static_cast<double>(num_atoms) *
                    BinomialCoefficient(static_cast<uint32_t>(num_atoms + k - 1),
                                        static_cast<uint32_t>(k));
  } else {
    const double pairs = static_cast<double>(num_atoms) * num_atoms;
    formula_count = 1.0;
    for (size_t i = 0; i < k; ++i) formula_count *= (pairs + i);
    for (size_t i = 1; i <= k; ++i) formula_count /= static_cast<double>(i);
  }
  if (formula_count > static_cast<double>(options.max_formulas)) {
    return TooManyFormulas(formula_count, options.max_formulas);
  }
  return OrbitSearch(*this,
                     same_consequent ? OrbitSearch::Family::kSameConsequent
                                     : OrbitSearch::Family::kGeneral,
                     k, options)
      .Run();
}

StatusOr<ExactDisclosure> ExactEngine::MaxDisclosureBasicImplications(
    size_t k, size_t max_antecedents, size_t max_consequents,
    BruteForceOptions options) const {
  if (max_antecedents == 0 || max_consequents == 0) {
    return Status::InvalidArgument("basic implications need >= 1 atom per side");
  }
  const size_t num_atoms = persons_.size() * domain_size_;
  auto atom_at = [&](size_t index) {
    return Atom{persons_[index / domain_size_],
                static_cast<int32_t>(index % domain_size_)};
  };

  // Materialize every candidate implication: (non-empty atom subset of size
  // <= max_antecedents) -> (non-empty atom subset of size <= max_consequents).
  std::vector<std::vector<size_t>> sides[2];
  const size_t side_caps[2] = {max_antecedents, max_consequents};
  for (int side = 0; side < 2; ++side) {
    std::vector<size_t> current;
    std::function<void(size_t)> rec = [&](size_t start) {
      if (!current.empty()) sides[side].push_back(current);
      if (current.size() == side_caps[side]) return;
      for (size_t a = start; a < num_atoms; ++a) {
        current.push_back(a);
        rec(a + 1);
        current.pop_back();
      }
    };
    rec(0);
  }

  const double num_implications =
      static_cast<double>(sides[0].size()) * sides[1].size();
  // Multisets of k implications.
  double formula_count = 1.0;
  for (size_t i = 0; i < k; ++i) formula_count *= (num_implications + i);
  for (size_t i = 1; i <= k; ++i) formula_count /= static_cast<double>(i);
  if (formula_count > static_cast<double>(options.max_formulas)) {
    return TooManyFormulas(formula_count, options.max_formulas);
  }

  // Bitmap and AST per candidate implication.
  std::vector<Bitset> imp_bits;
  std::vector<BasicImplication> imp_ast;
  imp_bits.reserve(sides[0].size() * sides[1].size());
  for (const auto& ante : sides[0]) {
    Bitset ante_bits(num_worlds_, /*all_ones=*/true);
    for (size_t a : ante) ante_bits &= atom_bits_[a];
    const Bitset not_ante = ante_bits.Not();
    for (const auto& cons : sides[1]) {
      Bitset holds = not_ante;
      for (size_t c : cons) holds |= atom_bits_[c];
      imp_bits.push_back(std::move(holds));
      BasicImplication imp;
      for (size_t a : ante) imp.antecedents.push_back(atom_at(a));
      for (size_t c : cons) imp.consequents.push_back(atom_at(c));
      imp_ast.push_back(std::move(imp));
    }
  }

  ExactDisclosure best;
  bool found = false;
  std::vector<size_t> chosen;
  auto consider = [&](const Bitset& sat) {
    const size_t denom = sat.Count();
    if (denom == 0) return;
    for (size_t t = 0; t < num_atoms; ++t) {
      const size_t numer = Bitset::AndCount(sat, atom_bits_[t]);
      const double p = static_cast<double>(numer) / static_cast<double>(denom);
      if (!found || p > best.disclosure) {
        found = true;
        best.disclosure = p;
        best.target = atom_at(t);
        KnowledgeFormula formula;
        for (size_t i : chosen) formula.Add(imp_ast[i]);
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
    for (size_t i = start; i < imp_bits.size(); ++i) {
      chosen.push_back(i);
      rec(i, sat & imp_bits[i]);
      chosen.pop_back();
    }
  };
  rec(0, Bitset(num_worlds_, /*all_ones=*/true));

  if (!found) return Status::Internal("no consistent formula found");
  return best;
}

StatusOr<ExactDisclosure> ExactEngine::MaxDisclosureNegations(
    size_t k, BruteForceOptions options) const {
  const size_t num_atoms = persons_.size() * domain_size_;
  const double formula_count =
      BinomialCoefficient(static_cast<uint32_t>(num_atoms),
                          static_cast<uint32_t>(k));
  if (formula_count > static_cast<double>(options.max_formulas)) {
    return TooManyFormulas(formula_count, options.max_formulas);
  }
  return OrbitSearch(*this, OrbitSearch::Family::kNegations, k, options).Run();
}

}  // namespace cksafe
