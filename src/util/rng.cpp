#include "util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "util/error.h"

namespace fedvr::util {

std::uint64_t Rng::below(std::uint64_t n) {
  FEDVR_CHECK(n > 0);
  // Lemire's method: multiply a 64-bit variate by n and keep the high word,
  // rejecting the small biased region of the low word.
  using u128 = unsigned __int128;
  std::uint64_t x = (*this)();
  u128 m = static_cast<u128>(x) * static_cast<u128>(n);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<u128>(x) * static_cast<u128>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller on (0,1] uniforms; 1-uniform() avoids log(0).
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(angle);
  has_cached_normal_ = true;
  return r * std::cos(angle);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  FEDVR_CHECK_MSG(k <= n, "cannot draw " << k << " distinct items from " << n);
  // Selection sampling (Knuth 3.4.2 algorithm S): O(n), no scratch of size n
  // beyond the output when k << n would matter, but n here is small.
  std::vector<std::size_t> out;
  out.reserve(k);
  std::size_t remaining = n;
  std::size_t needed = k;
  for (std::size_t i = 0; i < n && needed > 0; ++i) {
    if (below(remaining) < needed) {
      out.push_back(i);
      --needed;
    }
    --remaining;
  }
  return out;
}

void Rng::sample_subset_sorted(std::size_t n, std::size_t k,
                               std::vector<std::size_t>& out) {
  FEDVR_CHECK_MSG(k <= n, "cannot draw " << k << " distinct items from " << n);
  out.clear();
  // The taken set: open addressing with linear probing over a power-of-two
  // table of at least 2k slots, slot value item + 1 (0 = free). The table
  // is the calling thread's and keeps its storage, so a warm call allocates
  // nothing, and clearing its first `slots` entries costs O(k).
  thread_local std::vector<std::size_t> table;
  const std::size_t slots = std::bit_ceil(std::max<std::size_t>(2 * k, 16));
  if (table.size() < slots) table.assign(slots, 0);
  const int shift = 64 - std::countr_zero(slots);
  const auto insert = [&](std::size_t item) {  // false if already taken
    // Fibonacci hashing: the top bits of item * 2^64/phi.
    std::size_t slot = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(item) * 0x9E3779B97F4A7C15ULL) >> shift);
    while (table[slot] != 0) {
      if (table[slot] == item + 1) return false;
      slot = (slot + 1) & (slots - 1);
    }
    table[slot] = item + 1;
    return true;
  };
  // Floyd's algorithm (Bentley & Floyd, 1987): for j = n-k .. n-1 draw
  // t ∈ [0, j]; take t unless already taken, in which case take j (which
  // cannot have been taken before this step). Exactly k draws, uniform over
  // all k-subsets. Membership tests never iterate the set, so the result
  // does not depend on where the table puts an item. Nothing in the loop
  // throws once `out` has room for k, so the table is always left cleared.
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(below(j + 1));
    if (insert(t)) {
      out.push_back(t);
    } else {
      (void)insert(j);
      out.push_back(j);
    }
  }
  std::fill_n(table.begin(), slots, 0);
  std::sort(out.begin(), out.end());
}

Rng fork(std::uint64_t master_seed, std::uint64_t a, std::uint64_t b,
         std::uint64_t c) {
  // Run the coordinates through SplitMix64 sequentially; each absorption
  // fully avalanches, so (seed, a, b, c) tuples map to well-separated seeds.
  std::uint64_t s = master_seed;
  (void)splitmix64(s);
  s ^= a + 0x9E3779B97F4A7C15ULL;
  (void)splitmix64(s);
  s ^= b + 0xD1B54A32D192ED03ULL;
  (void)splitmix64(s);
  s ^= c + 0x2545F4914F6CDD1DULL;
  const std::uint64_t derived = splitmix64(s);
  return Rng(derived);
}

}  // namespace fedvr::util
