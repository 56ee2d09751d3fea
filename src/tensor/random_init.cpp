#include "tensor/random_init.h"

#include <cmath>

#include "util/error.h"

namespace fedvr::tensor {

void fill_uniform(util::Rng& rng, std::span<double> x, double lo, double hi) {
  for (double& v : x) v = rng.uniform(lo, hi);
}

void fill_glorot_uniform(util::Rng& rng, std::span<double> x,
                         std::size_t fan_in, std::size_t fan_out) {
  FEDVR_CHECK(fan_in + fan_out > 0);
  const double a =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  fill_uniform(rng, x, -a, a);
}

}  // namespace fedvr::tensor
