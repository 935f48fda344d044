// Dynamic fixed-size bitset used by the exact engine.
//
// The exact engine materializes the (small) set of worlds consistent with a
// bucketization and represents each atom as the bitset of worlds where it
// holds. Formula evaluation then becomes bitwise algebra and probability
// queries become popcounts.
//
// Popcounts run through a path chosen once at runtime: the hardware POPCNT
// instruction on x86 CPUs that have it, std::popcount otherwise (a library
// bit-twiddling routine when the build does not target POPCNT). Counts are
// integers, so every path returns identical results.

#ifndef CKSAFE_UTIL_BITSET_H_
#define CKSAFE_UTIL_BITSET_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "cksafe/util/check.h"

namespace cksafe {

/// Fixed-length sequence of bits with bitwise operations.
class Bitset {
 public:
  Bitset() = default;
  /// All bits cleared (or set when `all_ones`).
  explicit Bitset(size_t num_bits, bool all_ones = false);

  size_t size() const { return num_bits_; }

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const;

  /// Number of set bits.
  size_t Count() const;
  bool Any() const { return Count() > 0; }

  /// In-place bitwise operators; operands must have equal size.
  Bitset& operator&=(const Bitset& other);
  Bitset& operator|=(const Bitset& other);

  /// Bitwise complement (restricted to the valid bit range).
  Bitset Not() const;

  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }

  /// popcount(a & b) without materializing the intersection.
  static size_t AndCount(const Bitset& a, const Bitset& b);

  /// The backing words, (size() + 63) / 64 of them; bits past size() in
  /// the last word are always zero.
  const uint64_t* words() const { return words_.data(); }
  size_t num_words() const { return words_.size(); }

  bool operator==(const Bitset& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

 private:
  void TrimTail();

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

/// Number of set bits in words[0, n).
size_t PopcountWords(const uint64_t* words, size_t n);

/// Number of set bits in (a & b) over words [0, n).
size_t AndPopcountWords(const uint64_t* a, const uint64_t* b, size_t n);

/// The implementations PopcountWords / AndPopcountWords can run.
enum class PopcountPath : int {
  kPortable = 0,  // std::popcount, any CPU
  kHardware = 1,  // the x86 POPCNT instruction
};

/// True iff this binary has `path` and the CPU can run it. The hardware
/// path is used whenever it is usable.
bool PopcountPathUsable(PopcountPath path);

/// Test hook: forces `path` (must be usable) for later calls and returns
/// the path it replaces.
PopcountPath SetPopcountPathForTest(PopcountPath path);

}  // namespace cksafe

#endif  // CKSAFE_UTIL_BITSET_H_
