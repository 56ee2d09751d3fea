// Fixture: path scoping of no-alloc-in-hot-loop — the rule covers
// src/opt, src/tensor, src/core, and the per-round engine files
// src/fl/trainer.* / src/fl/hierarchy.* (see trainer.cpp in this
// directory). Other code in src/fl may allocate per round (it is not the
// per-participant hot path), so every line here must stay quiet.
#include "util/fixture_prelude.h"

namespace fedvr::fl {

void out_of_scope_round_alloc(std::size_t rounds, std::size_t dim,
                              std::vector<double>& sink) {
  for (std::size_t s = 0; s < rounds; ++s) {
    std::vector<double> delta(dim);
    delta[0] = static_cast<double>(s);
    sink.resize(dim);
    sink[0] = delta[0];
  }
}

}  // namespace fedvr::fl
