// fedvr::check — the invariant layer: zero-cost-when-off precondition and
// numerical-sanity macros for hot paths, plus parameter-vector hashing for
// determinism auditing.
//
// Two gates, compile time and run time:
//   * CMake `-DFEDVR_CHECKS=OFF` defines FEDVR_CHECKS_DISABLED and every
//     FEDVR_CHECK_* macro below expands to nothing — arguments are not even
//     evaluated, so a shipped Release build pays zero instructions.
//   * When compiled in, checks still guard on check::enabled(): a single
//     relaxed atomic load, togglable at runtime via check::set_enabled() or
//     the FEDVR_CHECKS environment variable (FEDVR_CHECKS=0/off/false
//     disables; anything else, or unset, enables).
//
// Division of labour with util/error.h: FEDVR_CHECK / FEDVR_CHECK_MSG stay
// always-on and validate cheap, once-per-call API contracts (constructor
// options, file formats). This layer carries the checks that are either on
// a per-element hot path (shape/stride preconditions inside kernels, index
// bounds) or O(n) scans (gradient finiteness), where "free when off"
// matters. Violations throw the same util::Error, so callers and tests
// handle both layers uniformly.
//
// Like fedvr::obs, this subsystem depends only on header-only
// util/error.h, so every layer — tensor, nn, opt, fl — can use it without
// dependency cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/error.h"

namespace fedvr::check {

/// True when the FEDVR_CHECK_* macros are compiled in for THIS translation
/// unit (internal linkage on purpose: a TU may opt out with its own
/// FEDVR_CHECKS_DISABLED without violating the one-definition rule).
#if defined(FEDVR_CHECKS_DISABLED)
constexpr bool kCompiledIn = false;
#else
constexpr bool kCompiledIn = true;
#endif

namespace detail {
// Initialised from the FEDVR_CHECKS environment variable at load time.
extern std::atomic<bool> g_enabled;

[[noreturn]] void shape_failure(const char* actual_expr,
                                const char* expected_expr, std::size_t actual,
                                std::size_t expected, const char* file,
                                int line);
[[noreturn]] void index_failure(const char* index_expr, const char* bound_expr,
                                std::size_t index, std::size_t bound,
                                const char* file, int line);
[[noreturn]] void finite_failure(const char* what, std::size_t index,
                                 double value, const char* file, int line);
}  // namespace detail

/// Runtime toggle (relaxed load; one instruction on the hot path).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the runtime toggle process-wide; returns the previous value so
/// scoped users can restore it.
bool set_enabled(bool on);

/// True when the library's FEDVR_CHECK_* sites would actually execute right
/// now (compiled in when fedvr_check was built, and runtime-enabled).
/// Tests use this to skip violation cases in checks-off builds.
[[nodiscard]] bool active();

/// Index of the first NaN or ±Inf element, or `v.size()` when all finite.
/// Scans 256-element blocks without a branch per element and rescans only
/// a block that holds a non-finite value.
[[nodiscard]] std::size_t first_non_finite(std::span<const double> v);

[[nodiscard]] inline bool all_finite(std::span<const double> v) {
  return first_non_finite(v) == v.size();
}

/// FNV-1a over the raw bytes of a parameter vector. Deterministic across
/// runs and platforms of equal endianness; bit-identical vectors — and only
/// those — hash equal, which is exactly the determinism audit we want
/// (an "almost equal" run is a reproducibility bug, not a match).
[[nodiscard]] std::uint64_t hash_span(std::span<const double> v);

}  // namespace fedvr::check

#if defined(FEDVR_CHECKS_DISABLED)

#define FEDVR_CHECK_SHAPE(actual, expected) \
  do {                                      \
  } while (0)
#define FEDVR_CHECK_INDEX(index, bound) \
  do {                                  \
  } while (0)
#define FEDVR_CHECK_FINITE(values, what) \
  do {                                   \
  } while (0)
#define FEDVR_CHECK_PRE(expr, streamed) \
  do {                                  \
  } while (0)

#else

/// Shape precondition: two extents must agree.
///   FEDVR_CHECK_SHAPE(x.size(), rows * cols);
#define FEDVR_CHECK_SHAPE(actual, expected)                                  \
  do {                                                                       \
    if (::fedvr::check::enabled()) {                                         \
      const std::size_t fedvr_chk_a = (actual);                              \
      const std::size_t fedvr_chk_e = (expected);                            \
      if (fedvr_chk_a != fedvr_chk_e) {                                      \
        ::fedvr::check::detail::shape_failure(#actual, #expected,            \
                                              fedvr_chk_a, fedvr_chk_e,     \
                                              __FILE__, __LINE__);           \
      }                                                                      \
    }                                                                        \
  } while (0)

/// Bounds precondition: index < bound.
///   FEDVR_CHECK_INDEX(device, fed.num_devices());
#define FEDVR_CHECK_INDEX(index, bound)                                      \
  do {                                                                       \
    if (::fedvr::check::enabled()) {                                         \
      const std::size_t fedvr_chk_i = (index);                               \
      const std::size_t fedvr_chk_b = (bound);                               \
      if (fedvr_chk_i >= fedvr_chk_b) {                                      \
        ::fedvr::check::detail::index_failure(#index, #bound, fedvr_chk_i,   \
                                              fedvr_chk_b, __FILE__,         \
                                              __LINE__);                     \
      }                                                                      \
    }                                                                        \
  } while (0)

/// Numerical sanity: every element of a span must be finite; the message
/// names the first bad element's index. An O(n) scan on every model
/// gradient and on the solver's v^(t) and w^(t+1): first_non_finite takes
/// about 2 us for the 784->10 model's 7,850 parameters on a 2.1 GHz Xeon
/// (BM_FirstNonFinite/7850 in bench/micro_kernels).
///   FEDVR_CHECK_FINITE(grad, "layer gradient");
#define FEDVR_CHECK_FINITE(values, what)                                     \
  do {                                                                       \
    if (::fedvr::check::enabled()) {                                         \
      const ::std::span<const double> fedvr_chk_v = (values);                \
      const std::size_t fedvr_chk_bad =                                      \
          ::fedvr::check::first_non_finite(fedvr_chk_v);                     \
      if (fedvr_chk_bad != fedvr_chk_v.size()) {                             \
        ::fedvr::check::detail::finite_failure(what, fedvr_chk_bad,          \
                                               fedvr_chk_v[fedvr_chk_bad],   \
                                               __FILE__, __LINE__);          \
      }                                                                      \
    }                                                                        \
  } while (0)

/// General gated precondition with streamed context, for conditions that do
/// not fit the shape/index/finite forms (e.g. stride lower bounds):
///   FEDVR_CHECK_PRE(ldc >= n, "gemm: ldc " << ldc << " < n " << n);
#define FEDVR_CHECK_PRE(expr, streamed)                                      \
  do {                                                                       \
    if (::fedvr::check::enabled() && !(expr)) {                              \
      ::fedvr::util::detail::MessageBuilder fedvr_chk_mb;                    \
      fedvr_chk_mb << streamed;                                              \
      ::fedvr::util::detail::raise_check_failure(#expr, __FILE__, __LINE__,  \
                                                 fedvr_chk_mb.str());        \
    }                                                                        \
  } while (0)

#endif  // FEDVR_CHECKS_DISABLED
