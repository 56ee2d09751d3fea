#include "check/check.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace fedvr::check {

namespace detail {

namespace {
bool enabled_from_env() {
  const char* env = std::getenv("FEDVR_CHECKS");
  if (env == nullptr) return true;
  const std::string_view v(env);
  return !(v == "0" || v == "off" || v == "OFF" || v == "false" ||
           v == "FALSE");
}
}  // namespace

std::atomic<bool> g_enabled{enabled_from_env()};

[[noreturn]] void shape_failure(const char* actual_expr,
                                const char* expected_expr, std::size_t actual,
                                std::size_t expected, const char* file,
                                int line) {
  std::ostringstream os;
  os << "shape mismatch: " << actual_expr << " = " << actual << " but "
     << expected_expr << " = " << expected;
  util::detail::raise_check_failure("FEDVR_CHECK_SHAPE", file, line, os.str());
}

[[noreturn]] void index_failure(const char* index_expr, const char* bound_expr,
                                std::size_t index, std::size_t bound,
                                const char* file, int line) {
  std::ostringstream os;
  os << "index out of range: " << index_expr << " = " << index
     << " must be < " << bound_expr << " = " << bound;
  util::detail::raise_check_failure("FEDVR_CHECK_INDEX", file, line, os.str());
}

[[noreturn]] void finite_failure(const char* what, std::size_t index,
                                 double value, const char* file, int line) {
  std::ostringstream os;
  os << "non-finite value in " << what << ": element " << index << " is "
     << value;
  util::detail::raise_check_failure("FEDVR_CHECK_FINITE", file, line,
                                    os.str());
}

}  // namespace detail

bool set_enabled(bool on) {
  return detail::g_enabled.exchange(on, std::memory_order_relaxed);
}

bool active() { return kCompiledIn && enabled(); }

namespace {

// A double is NaN or ±Inf exactly when its 11 exponent bits are all ones.
// Masking the exponent and adding one exponent unit carries into bit 63
// only then, so OR-ing (bits & kExponent) + kExponentUnit over a block
// leaves bit 63 set exactly when the block holds a non-finite value: no
// branch per element.
constexpr std::uint64_t kExponent = 0x7FF0000000000000ULL;
constexpr std::uint64_t kExponentUnit = 0x0010000000000000ULL;
constexpr std::size_t kFiniteBlock = 256;

std::uint64_t exponent_carry(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return (bits & kExponent) + kExponentUnit;
}

bool block_has_non_finite(const double* p, std::size_t n) {
  std::uint64_t acc = 0;
  std::size_t i = 0;
#if defined(__SSE2__)
  // Baseline x86-64 code, no target attribute: four accumulators of two
  // lanes each keep the OR chains independent.
  const __m128i mask = _mm_set1_epi64x(static_cast<long long>(kExponent));
  const __m128i unit = _mm_set1_epi64x(static_cast<long long>(kExponentUnit));
  __m128i a0 = _mm_setzero_si128();
  __m128i a1 = a0;
  __m128i a2 = a0;
  __m128i a3 = a0;
  const auto carry = [&](std::size_t k) {
    return _mm_add_epi64(_mm_and_si128(_mm_castpd_si128(_mm_loadu_pd(p + k)),
                                       mask),
                         unit);
  };
  for (; i + 8 <= n; i += 8) {
    a0 = _mm_or_si128(a0, carry(i));
    a1 = _mm_or_si128(a1, carry(i + 2));
    a2 = _mm_or_si128(a2, carry(i + 4));
    a3 = _mm_or_si128(a3, carry(i + 6));
  }
  const __m128i a = _mm_or_si128(_mm_or_si128(a0, a1), _mm_or_si128(a2, a3));
  std::uint64_t lanes[2];
  std::memcpy(lanes, &a, sizeof lanes);
  acc = lanes[0] | lanes[1];
#endif
  for (; i < n; ++i) acc |= exponent_carry(p[i]);
  return (acc >> 63) != 0;
}

}  // namespace

std::size_t first_non_finite(std::span<const double> v) {
  for (std::size_t start = 0; start < v.size(); start += kFiniteBlock) {
    const std::size_t n = std::min(kFiniteBlock, v.size() - start);
    if (!block_has_non_finite(v.data() + start, n)) continue;
    for (std::size_t i = start; i < start + n; ++i) {
      if (!std::isfinite(v[i])) return i;
    }
  }
  return v.size();
}

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

std::uint64_t fnv1a_bytes(std::uint64_t state, const unsigned char* bytes,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    state ^= bytes[i];
    state *= kFnvPrime;
  }
  return state;
}
}  // namespace

std::uint64_t hash_span(std::span<const double> v) {
  std::uint64_t state = kFnvOffset;
  for (const double d : v) {
    unsigned char bytes[sizeof d];
    std::memcpy(bytes, &d, sizeof d);
    state = fnv1a_bytes(state, bytes, sizeof d);
  }
  return state;
}

}  // namespace fedvr::check
