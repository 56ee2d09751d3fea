#include "util/rng.h"

#include <gtest/gtest.h>

#include "util/error.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <vector>

namespace fedvr::util {
namespace {

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a();
  (void)a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 1.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 1.5);
  }
}

TEST(Rng, UniformMeanIsCloseToHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(5);
  EXPECT_THROW((void)rng.below(0), Error);
}

TEST(Rng, BelowIsApproximatelyUniform) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.below(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit in 1000 draws
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sumsq += z * z;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 2.0), 0.0);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(29);
  std::vector<int> xs(100);
  std::iota(xs.begin(), xs.end(), 0);
  auto copy = xs;
  rng.shuffle(std::span<int>(copy));
  EXPECT_NE(copy, xs);  // astronomically unlikely to be identity
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, xs);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndSorted) {
  Rng rng(31);
  const auto s = rng.sample_without_replacement(50, 10);
  ASSERT_EQ(s.size(), 10u);
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    EXPECT_LT(s[i], s[i + 1]);
  }
  for (auto v : s) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(37);
  const auto s = rng.sample_without_replacement(5, 5);
  ASSERT_EQ(s.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleWithoutReplacementTooManyThrows) {
  Rng rng(37);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4), Error);
}

TEST(Rng, SampleSubsetSortedIsDistinctSortedInRange) {
  Rng rng(53);
  std::vector<std::size_t> out;
  rng.sample_subset_sorted(1000, 20, out);
  ASSERT_EQ(out.size(), 20u);
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    EXPECT_LT(out[i], out[i + 1]);
  }
  for (auto v : out) EXPECT_LT(v, 1000u);
  // The out-param is cleared, not appended to.
  rng.sample_subset_sorted(1000, 5, out);
  EXPECT_EQ(out.size(), 5u);
}

TEST(Rng, SampleSubsetSortedFullRangeAndErrors) {
  Rng rng(59);
  std::vector<std::size_t> out;
  rng.sample_subset_sorted(6, 6, out);
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(out[i], i);
  rng.sample_subset_sorted(6, 0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_THROW(rng.sample_subset_sorted(3, 4, out), Error);
}

TEST(Rng, SampleSubsetSortedIsUnbiased) {
  // Floyd's algorithm gives every index the same inclusion probability
  // k/n; a per-index chi-square-ish tolerance catches off-by-one bugs in
  // the [n-k, n) window handling.
  Rng rng(61);
  constexpr std::size_t n = 20, k = 5;
  constexpr int trials = 40000;
  std::vector<int> counts(n, 0);
  std::vector<std::size_t> out;
  for (int t = 0; t < trials; ++t) {
    rng.sample_subset_sorted(n, k, out);
    for (auto v : out) counts[v]++;
  }
  const double expected = static_cast<double>(trials) * k / n;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(counts[i], expected, 0.05 * expected) << "index " << i;
  }
}

TEST(Rng, SampleSubsetSortedCostIsIndependentOfPopulation) {
  // O(k) contract: sampling 10 of a billion must not walk the population.
  // (An O(n) implementation would time out long before any assertion.)
  Rng rng(67);
  std::vector<std::size_t> out;
  rng.sample_subset_sorted(1'000'000'000, 10, out);
  ASSERT_EQ(out.size(), 10u);
  for (auto v : out) EXPECT_LT(v, 1'000'000'000u);
}

// Outputs recorded from the std::unordered_set implementation: the
// membership set's storage must not change a draw. Two calls per stream,
// then the next raw draw, so the number of draws each call makes is pinned
// too.
TEST(Rng, SampleSubsetSortedKeepsItsPinnedOutputs) {
  struct Case {
    std::uint64_t seed;
    std::size_t n;
    std::size_t k;
    std::vector<std::size_t> second;
    std::uint64_t next;
  };
  const std::vector<Case> cases = {
      {3, 10, 4, {1, 2, 3, 7}, 17382059060629927385ULL},
      {11,
       1000,
       12,
       {22, 74, 91, 182, 197, 287, 371, 565, 831, 841, 966, 988},
       18298105661121217373ULL},
      {41, 65, 33, {2,  3,  6,  9,  10, 14, 16, 17, 21, 23, 24,
                    25, 26, 29, 31, 32, 36, 38, 39, 40, 42, 44,
                    49, 51, 52, 54, 55, 56, 57, 60, 62, 63, 64},
       15513982146176663878ULL},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    std::vector<std::size_t> out;
    rng.sample_subset_sorted(c.n, c.k, out);
    rng.sample_subset_sorted(c.n, c.k, out);
    EXPECT_EQ(out, c.second) << "seed " << c.seed;
    EXPECT_EQ(rng(), c.next) << "seed " << c.seed;
  }
  // fleet_sampled's draw: 64 of 10^5 devices, folded.
  Rng rng(29);
  std::vector<std::size_t> out;
  rng.sample_subset_sorted(100'000, 64, out);
  rng.sample_subset_sorted(100'000, 64, out);
  std::uint64_t fold = 0;
  for (const std::size_t v : out) fold = fold * 1000003ULL + v;
  EXPECT_EQ(fold, 17303500721644041825ULL);
  EXPECT_EQ(out.front(), 1077U);
  EXPECT_EQ(out.back(), 99558U);
  EXPECT_EQ(rng(), 1472327243132078548ULL);
}

TEST(Rng, MatchesXoshiro256StarStarReference) {
  // Blackman & Vigna's reference next(), seeded with four SplitMix64 words
  // of the seed, written out independently of the class.
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  for (const std::uint64_t seed : {0ULL, 42ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    std::uint64_t sm = seed;
    std::uint64_t s[4];
    for (auto& word : s) word = splitmix64(sm);
    Rng rng(seed);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
      const std::uint64_t t = s[1] << 17;
      s[2] ^= s[0];
      s[3] ^= s[1];
      s[1] ^= s[2];
      s[0] ^= s[3];
      s[2] ^= t;
      s[3] = rotl(s[3], 45);
      ASSERT_EQ(rng(), result) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Rng, ReseedAlsoRestartsNormalSequence) {
  // normal() draws its variates in pairs and caches the second; reseeding
  // must drop that cache too, or the first normal after a reseed would
  // come from the old stream.
  Rng a(41);
  const double first = a.normal();
  const double second = a.normal();
  (void)a.normal();  // leaves the pair's second variate cached
  a.reseed(41);
  EXPECT_EQ(a.normal(), first);
  EXPECT_EQ(a.normal(), second);
  Rng fresh(41);
  (void)fresh.normal();
  (void)fresh.normal();
  EXPECT_EQ(a(), fresh());
}

TEST(Rng, BelowIsUnbiasedForABoundAboveTwoToThe63) {
  // n = 3·2^62: without the rejection step, multiply-shift maps two 64-bit
  // words onto every multiple of 3 and one onto each other value, so half
  // the draws, not a third, would be multiples of 3.
  constexpr std::uint64_t n = 3ULL << 62;
  Rng rng(71);
  constexpr int draws = 60000;
  int multiples_of_three = 0;
  int upper_third = 0;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t v = rng.below(n);
    ASSERT_LT(v, n);
    multiples_of_three += (v % 3 == 0);
    upper_third += (v >= (2ULL << 62));
  }
  EXPECT_NEAR(static_cast<double>(multiples_of_three) / draws, 1.0 / 3.0,
              0.01);
  EXPECT_NEAR(static_cast<double>(upper_third) / draws, 1.0 / 3.0, 0.01);
}

TEST(Rng, ShuffleIsUniformOverPermutations) {
  // Fisher–Yates reaches each of the 3! orders with probability 1/6.
  // Sattolo's variant (never swapping an element with itself) reaches only
  // the two 3-cycles, and the naive "swap with any index" loop favours
  // three orders 5:4.
  Rng rng(73);
  constexpr int trials = 60000;
  std::map<std::vector<int>, int> counts;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> xs = {0, 1, 2};
    rng.shuffle(std::span<int>(xs));
    counts[xs]++;
  }
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [order, c] : counts) {
    EXPECT_NEAR(c, trials / 6.0, 0.04 * trials / 6.0)
        << order[0] << order[1] << order[2];
  }
}

TEST(Rng, SampleWithoutReplacementIsUnbiased) {
  // Selection sampling includes every index with probability k/n.
  Rng rng(79);
  constexpr std::size_t n = 20, k = 5;
  constexpr int trials = 40000;
  std::vector<int> counts(n, 0);
  for (int t = 0; t < trials; ++t) {
    for (auto v : rng.sample_without_replacement(n, k)) counts[v]++;
  }
  const double expected = static_cast<double>(trials) * k / n;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(counts[i], expected, 0.05 * expected) << "index " << i;
  }
}

TEST(Rng, LognormalLogHasRequestedMoments) {
  Rng rng(83);
  constexpr double mu = 0.5, sigma = 1.5;
  constexpr int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = std::log(rng.lognormal(mu, sigma));
    sum += z;
    sumsq += z * z;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, mu, 0.02);
  EXPECT_NEAR(sumsq / n - mean * mean, sigma * sigma, 0.05);
}

TEST(Fork, SameCoordinatesSameStream) {
  Rng a = fork(99, 1, 2, 3);
  Rng b = fork(99, 1, 2, 3);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a(), b());
}

TEST(Fork, DifferentCoordinatesIndependentStreams) {
  Rng a = fork(99, 1, 2, 3);
  Rng b = fork(99, 1, 2, 4);
  Rng c = fork(99, 2, 2, 3);
  Rng d = fork(100, 1, 2, 3);
  int collisions = 0;
  for (int i = 0; i < 50; ++i) {
    const auto va = a();
    collisions += (va == b()) + (va == c()) + (va == d());
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Fork, CoordinateOrderMatters) {
  Rng a = fork(7, 1, 2);
  Rng b = fork(7, 2, 1);
  EXPECT_NE(a(), b());
}

TEST(Splitmix, KnownGoodValues) {
  // Reference values for seed 0 (widely published SplitMix64 test vector).
  std::uint64_t s = 0;
  EXPECT_EQ(splitmix64(s), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(s), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64(s), 0x06C45D188009454FULL);
}

}  // namespace
}  // namespace fedvr::util
