// Fixture: no-alloc-in-hot-loop covers src/nn, which computes every
// gradient and eval chunk. A buffer sized inside the chunk loop is flagged;
// sizing it once for the largest chunk, ahead of the loop, is the fix.
#include "util/fixture_prelude.h"

namespace fedvr::nn {

// Positives: per-chunk sizing of the logits gradient and a per-chunk
// staging vector.
void bad_per_chunk_buffers(std::size_t n, std::size_t chunk,
                           std::size_t classes,
                           std::vector<double>& d_logits) {
  for (std::size_t start = 0; start < n; start += chunk) {
    d_logits.resize(chunk * classes);  // expect: no-alloc-in-hot-loop
    std::vector<double> rows(chunk);  // expect: no-alloc-in-hot-loop
    rows[0] = d_logits[0];
  }
}

// Negative: sized once, ahead of the chunk loop.
void good_sized_once(std::size_t n, std::size_t chunk, std::size_t classes,
                     std::vector<double>& d_logits) {
  d_logits.resize(chunk * classes);
  for (std::size_t start = 0; start < n; start += chunk) {
    d_logits[0] = static_cast<double>(start);
  }
}

}  // namespace fedvr::nn
