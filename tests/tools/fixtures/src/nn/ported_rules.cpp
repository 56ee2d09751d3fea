// Fixture: the rules ported from tools/lint.py's regexes onto token/AST
// facts — no-std-rand, no-naked-new, aggregation-in-seam,
// compression-in-seam — plus a scope check that unordered iteration
// outside fl/core/comm/tensor stays quiet.
#include "util/fixture_prelude.h"

namespace fedvr::nn {

// Positives: ambient randomness in its three common spellings.
unsigned bad_rand(std::uint64_t seed) {
  std::srand(static_cast<unsigned>(seed));  // expect: no-std-rand
  return std::rand();  // expect: no-std-rand
}

unsigned bad_random_device() {
  std::random_device rd;  // expect: no-std-rand
  return rd();
}

// Positives: naked allocation — and the matching naked delete.
double* bad_new() {
  double* p = new double[8];  // expect: no-naked-new
  return p;
}

void bad_delete(double* p) {
  delete[] p;  // expect: no-naked-new
}

// Negative: `= delete;` declarations are not deallocations.
struct NoCopy {
  NoCopy(const NoCopy&) = delete;
  NoCopy& operator=(const NoCopy&) = delete;
};

// Positive: weighted averaging outside the fl::Aggregator seam.
void bad_accumulate(std::span<const double> x, std::span<double> acc) {
  tensor::accumulate_weighted(0.5, x, acc);  // expect: aggregation-in-seam
}

// Positive: raw compression outside the comm::Channel seam skips error
// feedback and wire-byte accounting.
std::vector<double> bad_compress(comm::Compressor& comp,
                                 std::span<const double> x) {
  return comp.compress(x);  // expect: compression-in-seam
}

// Negative (scope): unordered iteration only matters in the reduction /
// serialization dirs; src/nn/ is out of scope for that rule. (src/nn is in
// no-alloc-in-hot-loop's scope, so the push_back needs its reserve().)
void scoped_unordered_ok(const std::unordered_map<int, double>& table,
                         std::vector<int>& keys) {
  keys.reserve(table.size());
  for (const auto& kv : table) {
    keys.push_back(kv.first);
  }
}

// Allowed: escape hatch on a ported rule.
unsigned allowed_rand() {
  // lint:allow(no-std-rand) fixture: demonstrates the escape hatch
  return std::rand();
}

}  // namespace fedvr::nn
