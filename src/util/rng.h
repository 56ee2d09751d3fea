// Deterministic, splittable random number generation.
//
// Everything in fedvr that needs randomness derives it from a single master
// seed through *named stream forking*: fork(seed, device, round, purpose)
// hashes its arguments into an independent stream. This makes federated runs
// bit-reproducible no matter how devices are scheduled onto threads, which is
// essential both for debugging and for paper-style "same data, different
// algorithm" comparisons.
//
// The core generator is xoshiro256** (Blackman & Vigna) seeded via
// SplitMix64, a standard, fast, high-quality combination.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace fedvr::util {

/// SplitMix64 step: used for seeding and for hashing fork coordinates.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator so it
/// can drive <random> distributions, though fedvr ships its own (portable
/// across standard libraries).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    for (auto& word : state_) word = splitmix64(seed);
    // All-zero state is the one invalid state; SplitMix64 cannot emit four
    // zeros in a row from any seed, so no further guard is needed.
    has_cached_normal_ = false;  // a cached variate belongs to the old stream
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection
  /// method: unbiased and fast.
  [[nodiscard]] std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Standard normal via Box–Muller (caches the second variate).
  [[nodiscard]] double normal();

  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Samples from a log-normal distribution: exp(N(mu, sigma^2)).
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Fisher–Yates shuffle of a span.
  template <typename T>
  void shuffle(std::span<T> xs) {
    for (std::size_t i = xs.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(xs[i - 1], xs[j]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n) (k <= n).
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k);

  /// k distinct indices sampled uniformly from [0, n), returned in ascending
  /// order, appended to `out` (cleared first; capacity is reused). Floyd's
  /// algorithm: O(k) draws and O(k) memory however large n is, which is what
  /// makes sampling m of 1,000,000 devices per round affordable; its taken
  /// set is a table the calling thread keeps, so a warm call with `out`'s
  /// capacity at least k allocates nothing. The O(n) selection scan above
  /// walks the whole population. The two methods draw different streams, so
  /// they are not interchangeable under a pinned seed.
  void sample_subset_sorted(std::size_t n, std::size_t k,
                            std::vector<std::size_t>& out);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Deterministically derives an independent stream from a master seed and up
/// to three named coordinates (e.g. device id, round, purpose tag). Streams
/// with different coordinates are statistically independent for all
/// practical purposes (SplitMix64 avalanche).
[[nodiscard]] Rng fork(std::uint64_t master_seed, std::uint64_t a,
                       std::uint64_t b = 0, std::uint64_t c = 0);

/// Well-known purpose tags for fork()'s last coordinate, so call sites do
/// not collide by accident.
namespace stream {
inline constexpr std::uint64_t kData = 1;       // dataset generation
inline constexpr std::uint64_t kInit = 2;       // parameter initialization
inline constexpr std::uint64_t kSampling = 3;   // minibatch sampling
inline constexpr std::uint64_t kSelection = 4;  // iterate/client selection
inline constexpr std::uint64_t kSearch = 5;     // hyperparameter search
inline constexpr std::uint64_t kFaults = 6;     // fault-event injection
inline constexpr std::uint64_t kComm = 7;       // comm: compressor draws
                                                // (device+1 coord) and
                                                // ProxSkip skip coins
                                                // (device coord 0)
}  // namespace stream

}  // namespace fedvr::util
