// Parameter initialization schemes.
#pragma once

#include <span>

#include "util/rng.h"

namespace fedvr::tensor {

/// Fills with U[lo, hi).
void fill_uniform(util::Rng& rng, std::span<double> x, double lo, double hi);

/// Glorot/Xavier uniform: U[-a, a] with a = sqrt(6 / (fan_in + fan_out)).
/// The standard choice for tanh/linear layers; used for all dense and conv
/// weights here (matches common TF defaults of the paper's era).
void fill_glorot_uniform(util::Rng& rng, std::span<double> x,
                         std::size_t fan_in, std::size_t fan_out);

}  // namespace fedvr::tensor
