#include "check/check.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/models.h"
#include "tensor/kernels.h"
#include "tensor/shape.h"
#include "util/error.h"

namespace fedvr::check {
namespace {

using fedvr::util::Error;

// Restores the process-global runtime toggle so tests cannot leak state
// into each other (gtest runs every suite in one process).
class ScopedChecks {
 public:
  explicit ScopedChecks(bool on) : previous_(set_enabled(on)) {}
  ScopedChecks(const ScopedChecks&) = delete;
  ScopedChecks& operator=(const ScopedChecks&) = delete;
  ~ScopedChecks() { set_enabled(previous_); }

 private:
  bool previous_;
};

TEST(Check, ShapeMismatchTrips) {
  if (!kCompiledIn) GTEST_SKIP() << "checks compiled out";
  ScopedChecks on(true);
  const std::vector<double> x(3);
  try {
    FEDVR_CHECK_SHAPE(x.size(), 4U);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shape mismatch"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("4"), std::string::npos);
  }
  FEDVR_CHECK_SHAPE(x.size(), 3U);  // equal shapes pass
}

TEST(Check, IndexOutOfRangeTrips) {
  if (!kCompiledIn) GTEST_SKIP() << "checks compiled out";
  ScopedChecks on(true);
  FEDVR_CHECK_INDEX(2U, 3U);
  try {
    FEDVR_CHECK_INDEX(3U, 3U);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("index out of range"),
              std::string::npos);
  }
}

TEST(Check, FiniteTripsOnNanAndInfWithElementIndex) {
  if (!kCompiledIn) GTEST_SKIP() << "checks compiled out";
  ScopedChecks on(true);
  std::vector<double> v = {0.0, 1.0, std::nan(""), 2.0};
  try {
    FEDVR_CHECK_FINITE(std::span<const double>(v), "test vector");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite value in test vector"),
              std::string::npos);
    EXPECT_NE(what.find("element 2"), std::string::npos);
  }
  v[2] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FEDVR_CHECK_FINITE(std::span<const double>(v), "v"), Error);
  v[2] = 0.5;
  FEDVR_CHECK_FINITE(std::span<const double>(v), "v");  // all finite passes
}

TEST(Check, PreconditionTripsWithStreamedContext) {
  if (!kCompiledIn) GTEST_SKIP() << "checks compiled out";
  ScopedChecks on(true);
  [[maybe_unused]] const int n = 7;
  try {
    FEDVR_CHECK_PRE(n > 10, "need more than ten, got " << n);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("need more than ten, got 7"),
              std::string::npos);
  }
}

TEST(Check, RuntimeDisableSkipsChecksAndArgumentEvaluation) {
  if (!kCompiledIn) GTEST_SKIP() << "checks compiled out";
  ScopedChecks off(false);
  int evaluations = 0;
  [[maybe_unused]] auto counted = [&evaluations](std::size_t v) {
    ++evaluations;
    return v;
  };
  FEDVR_CHECK_SHAPE(counted(1), counted(2));
  FEDVR_CHECK_INDEX(counted(9), counted(3));
  FEDVR_CHECK_PRE(counted(0) == 1, "never evaluated");
  EXPECT_EQ(evaluations, 0);  // disabled checks cost one load, nothing else
  EXPECT_FALSE(active());
}

TEST(Check, SetEnabledReturnsPreviousState) {
  const bool original = set_enabled(true);
  EXPECT_TRUE(set_enabled(false));
  EXPECT_FALSE(set_enabled(original));
}

TEST(Check, GemmShapePreconditionTripsThroughKernel) {
  if (!active()) GTEST_SKIP() << "fedvr::check inactive";
  ScopedChecks on(true);
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {1.0};  // a 2x2 B needs 4
  std::vector<double> c(4);
  EXPECT_THROW(tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kNo, 2,
                                   2, 2, 1.0, a, b, 0.0, c),
               Error);
}

TEST(Check, NanGradientTripsAtModelBoundary) {
  if (!active()) GTEST_SKIP() << "fedvr::check inactive";
  ScopedChecks on(true);
  auto model = nn::make_logistic_regression(/*input_dim=*/3,
                                            /*num_classes=*/2);
  data::Dataset ds(tensor::Shape({3}), /*n=*/2, /*num_classes=*/2);
  ds.mutable_sample(0)[0] = 1.0;
  ds.mutable_sample(1)[1] = std::nan("");  // one poisoned feature
  ds.set_label(0, 0);
  ds.set_label(1, 1);
  const std::vector<std::size_t> idx = {0, 1};
  std::vector<double> w(model->num_parameters(), 0.1);
  std::vector<double> grad(model->num_parameters());
  EXPECT_THROW((void)model->loss_and_gradient(w, ds, idx, grad), Error);
}

TEST(Check, HashSpanIsDeterministicAndBitSensitive) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_EQ(hash_span(a), hash_span(b));

  std::vector<double> flipped = a;
  flipped[1] = std::nextafter(flipped[1], 10.0);  // one-ulp change
  EXPECT_NE(hash_span(a), hash_span(flipped));

  const std::vector<double> reordered = {2.0, 1.0, 3.0};
  EXPECT_NE(hash_span(a), hash_span(reordered));

  // +0.0 and -0.0 compare equal but are different bit patterns; the
  // determinism audit must distinguish them.
  const std::vector<double> pos_zero = {0.0};
  const std::vector<double> neg_zero = {-0.0};
  EXPECT_NE(hash_span(pos_zero), hash_span(neg_zero));
}

TEST(Check, HashSpanIsFnv1aOverTheVectorBytes) {
  // 64-bit FNV-1a (offset basis 0xcbf29ce484222325, prime 2^40 + 0x1b3)
  // over the vector's bytes in memory order: the definition the trace
  // CSVs' param_hash column is documented with.
  const auto fnv1a = [](const std::vector<double>& v) {
    std::vector<unsigned char> bytes(v.size() * sizeof(double));
    if (!v.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  EXPECT_EQ(hash_span({}), 0xcbf29ce484222325ULL);
  std::vector<double> ramp(1000);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = std::ldexp(static_cast<double>(i) - 499.5, -7);
  }
  for (const std::vector<double>& v :
       {std::vector<double>{1.0}, std::vector<double>{1.0, -2.5, 3e-300},
        ramp}) {
    EXPECT_EQ(hash_span(v), fnv1a(v)) << v.size() << " elements";
  }
}

TEST(Check, FirstNonFiniteFindsEarliestOffender) {
  const std::vector<double> clean = {1.0, 2.0};
  EXPECT_EQ(first_non_finite(clean), clean.size());
  EXPECT_TRUE(all_finite(clean));
  const std::vector<double> dirty = {
      1.0, std::numeric_limits<double>::infinity(), std::nan("")};
  EXPECT_EQ(first_non_finite(dirty), 1U);
  EXPECT_FALSE(all_finite(dirty));
}

// The scan checks 256-element blocks branch-free and rescans only a
// flagged block; it must still agree with a plain std::isfinite loop.

double from_bits(std::uint64_t b) {
  double x = 0.0;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

std::size_t scalar_first_non_finite(const std::vector<double>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) return i;
  }
  return v.size();
}

// Quiet and signalling NaNs of both signs (with low and full payloads) and
// both infinities.
const std::vector<double>& non_finite_values() {
  static const std::vector<double> values = {
      from_bits(0x7FF8000000000000ULL), from_bits(0xFFF8000000000000ULL),
      from_bits(0x7FF0000000000001ULL), from_bits(0xFFF0000000000001ULL),
      from_bits(0x7FFFFFFFFFFFFFFFULL), from_bits(0xFFFFFFFFFFFFFFFFULL),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  return values;
}

// Finite values from every exponent range, including the extremes.
std::vector<double> clean_vector(std::size_t n) {
  const double extremes[] = {std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             -0.0,
                             0.0,
                             1.0};
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = i % 3 == 0 ? extremes[(i / 3) % 8]
                      : std::ldexp(1.0 + static_cast<double>(i % 97) / 97.0,
                                   static_cast<int>(i % 2045) - 1022) *
                            (i % 2 == 0 ? 1.0 : -1.0);
  }
  return v;
}

TEST(Check, FirstNonFiniteMatchesScalarLoopAtEveryPosition) {
  for (const std::size_t n : {0, 1, 255, 256, 257, 513, 7850}) {
    std::vector<double> v = clean_vector(n);
    ASSERT_EQ(first_non_finite(v), n);
    for (const double bad : non_finite_values()) {
      std::size_t mismatches = 0;
      for (std::size_t pos = 0; pos < n; ++pos) {
        const double keep = v[pos];
        v[pos] = bad;
        const std::size_t got = first_non_finite(v);
        mismatches += (got != pos || got != scalar_first_non_finite(v));
        v[pos] = keep;
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " value=" << bad;
    }
  }
}

TEST(Check, FirstNonFiniteReturnsTheFirstOfSeveral) {
  std::vector<double> v = clean_vector(1000);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  v[900] = nan;
  v[700] = -inf;  // a later block, after clean blocks
  EXPECT_EQ(first_non_finite(v), 700u);
  v[301] = inf;
  v[300] = nan;  // two in one block
  EXPECT_EQ(first_non_finite(v), 300u);
  v[5] = -nan;
  EXPECT_EQ(first_non_finite(v), 5u);
  EXPECT_FALSE(all_finite(v));
}

TEST(Check, FirstNonFiniteNeverFlagsExtremeFiniteValues) {
  const double values[] = {std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           -0.0};
  for (const double x : values) {
    for (const std::size_t n : {1, 7, 256, 513}) {
      const std::vector<double> v(n, x);
      EXPECT_EQ(first_non_finite(v), n) << x;
      EXPECT_TRUE(all_finite(v)) << x;
    }
  }
  EXPECT_TRUE(all_finite(clean_vector(7850)));
}

TEST(Check, FiniteMessageNamesAnIndexPastTheFirstBlock) {
  if (!kCompiledIn) GTEST_SKIP() << "checks compiled out";
  ScopedChecks on(true);
  std::vector<double> v = clean_vector(7850);
  v[7001] = from_bits(0xFFF0000000000001ULL);
  v[6000] = std::numeric_limits<double>::infinity();
  try {
    FEDVR_CHECK_FINITE(std::span<const double>(v), "long vector");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("element 6000 is inf"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace fedvr::check
