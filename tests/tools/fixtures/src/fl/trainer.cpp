// Fixture: no-alloc-in-hot-loop coverage of the round engine. Its stages
// run once per round over every participant, so src/fl/trainer.* (and
// src/fl/hierarchy.*) are held to the solver hot-path standard: no
// per-iteration heap growth; reserve() ahead of the loop exempts push_back.
#include "util/fixture_prelude.h"

namespace fedvr::fl {

// Positive: growing a slot list without reserving first allocates
// (amortized) every round.
void bad_unreserved_slots(std::size_t slots, std::vector<double>& queue) {
  for (std::size_t k = 0; k < slots; ++k) {
    queue.push_back(static_cast<double>(k));  // expect: no-alloc-in-hot-loop
  }
}

// Positive: a per-slot scratch vector constructed inside the schedule loop.
double bad_per_slot_scratch(std::size_t slots) {
  double total_time = 0.0;
  for (std::size_t k = 0; k < slots; ++k) {
    std::vector<double> scratch(4);  // expect: no-alloc-in-hot-loop
    scratch[0] = static_cast<double>(k);
    total_time = scratch[0];
  }
  return total_time;
}

// Negative: reserve() in the same function, ahead of the loop, exempts the
// push_back growth — the pattern RunState::schedule_round uses.
void good_reserved_survivors(std::size_t slots, std::vector<double>& times) {
  times.reserve(slots);
  for (std::size_t k = 0; k < slots; ++k) {
    times.push_back(static_cast<double>(k));
  }
}

// Negative: buffers sized once before the loop and reused per iteration.
double good_hoisted_buffer(std::size_t slots) {
  std::vector<double> completion(slots);
  double realized = 0.0;
  for (std::size_t k = 0; k < slots; ++k) {
    completion[k] = static_cast<double>(k);
    if (completion[k] > realized) realized = completion[k];
  }
  return realized;
}

// Allowed: justified escape hatch (the hierarchy's shrink-only resizes).
void allowed_shrinking_resize(std::size_t levels, std::vector<double>& sums) {
  sums.reserve(levels);
  for (std::size_t l = levels; l > 1; l /= 2) {
    // lint:allow(no-alloc-in-hot-loop) shrink-only; capacity reserved above
    sums.resize(l);
  }
}

}  // namespace fedvr::fl
