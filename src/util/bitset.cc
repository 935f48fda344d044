#include "cksafe/util/bitset.h"

#include <atomic>

namespace cksafe {

namespace {

using PopcountFn = size_t (*)(const uint64_t*, size_t);
using AndPopcountFn = size_t (*)(const uint64_t*, const uint64_t*, size_t);

struct PopcountKernels {
  PopcountFn count;
  AndPopcountFn and_count;
};

// The loops every path runs. Each path inlines them under its own target,
// so std::popcount becomes whatever that target offers.
[[gnu::always_inline]] inline size_t CountLoop(const uint64_t* words,
                                               size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(words[i]));
  }
  return count;
}

[[gnu::always_inline]] inline size_t AndCountLoop(const uint64_t* a,
                                                  const uint64_t* b,
                                                  size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

size_t PortablePopcount(const uint64_t* words, size_t n) {
  return CountLoop(words, n);
}

size_t PortableAndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  return AndCountLoop(a, b, n);
}

constexpr PopcountKernels kPortableKernels = {PortablePopcount,
                                              PortableAndPopcount};

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CKSAFE_HAVE_HARDWARE_POPCOUNT 1

// Compiled for POPCNT, where std::popcount is the single instruction.
// Reached only after __builtin_cpu_supports("popcnt") says the CPU has it.
__attribute__((target("popcnt"))) size_t HardwarePopcount(
    const uint64_t* words, size_t n) {
  return CountLoop(words, n);
}

__attribute__((target("popcnt"))) size_t HardwareAndPopcount(
    const uint64_t* a, const uint64_t* b, size_t n) {
  return AndCountLoop(a, b, n);
}

constexpr PopcountKernels kHardwareKernels = {HardwarePopcount,
                                              HardwareAndPopcount};
#endif

const PopcountKernels* KernelsFor(PopcountPath path) {
  switch (path) {
    case PopcountPath::kPortable:
      return &kPortableKernels;
    case PopcountPath::kHardware:
#ifdef CKSAFE_HAVE_HARDWARE_POPCOUNT
      return __builtin_cpu_supports("popcnt") ? &kHardwareKernels : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

// Resolved on first use; racing first calls store the same table.
std::atomic<const PopcountKernels*> g_kernels{nullptr};

const PopcountKernels& Kernels() {
  const PopcountKernels* kernels = g_kernels.load(std::memory_order_relaxed);
  if (kernels == nullptr) {
    kernels = KernelsFor(PopcountPath::kHardware);
    if (kernels == nullptr) kernels = &kPortableKernels;
    g_kernels.store(kernels, std::memory_order_relaxed);
  }
  return *kernels;
}

}  // namespace

bool PopcountPathUsable(PopcountPath path) {
  return KernelsFor(path) != nullptr;
}

PopcountPath SetPopcountPathForTest(PopcountPath path) {
  const PopcountKernels* kernels = KernelsFor(path);
  CKSAFE_CHECK(kernels != nullptr)
      << "popcount path " << static_cast<int>(path) << " is not usable";
  const PopcountKernels* previous = &Kernels();
  g_kernels.store(kernels, std::memory_order_relaxed);
  return previous == &kPortableKernels ? PopcountPath::kPortable
                                       : PopcountPath::kHardware;
}

size_t PopcountWords(const uint64_t* words, size_t n) {
  return Kernels().count(words, n);
}

size_t AndPopcountWords(const uint64_t* a, const uint64_t* b, size_t n) {
  return Kernels().and_count(a, b, n);
}

Bitset::Bitset(size_t num_bits, bool all_ones)
    : num_bits_(num_bits), words_((num_bits + 63) / 64, all_ones ? ~0ULL : 0ULL) {
  if (all_ones) TrimTail();
}

void Bitset::TrimTail() {
  const size_t tail = num_bits_ % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

void Bitset::Set(size_t i) {
  CKSAFE_CHECK_LT(i, num_bits_);
  words_[i / 64] |= (1ULL << (i % 64));
}

void Bitset::Clear(size_t i) {
  CKSAFE_CHECK_LT(i, num_bits_);
  words_[i / 64] &= ~(1ULL << (i % 64));
}

bool Bitset::Test(size_t i) const {
  CKSAFE_CHECK_LT(i, num_bits_);
  return (words_[i / 64] >> (i % 64)) & 1;
}

size_t Bitset::Count() const { return PopcountWords(words(), num_words()); }

Bitset& Bitset::operator&=(const Bitset& other) {
  CKSAFE_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

Bitset& Bitset::operator|=(const Bitset& other) {
  CKSAFE_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

Bitset Bitset::Not() const {
  Bitset out(num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) out.words_[i] = ~words_[i];
  out.TrimTail();
  return out;
}

size_t Bitset::AndCount(const Bitset& a, const Bitset& b) {
  CKSAFE_CHECK_EQ(a.num_bits_, b.num_bits_);
  return AndPopcountWords(a.words(), b.words(), a.num_words());
}

}  // namespace cksafe
