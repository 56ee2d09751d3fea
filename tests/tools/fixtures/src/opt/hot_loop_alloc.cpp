// Fixture: no-alloc-in-hot-loop — loops in src/opt, src/tensor and
// src/core are per-round/per-iteration hot paths; sized vector
// constructions, resize/push_back growth and new-expressions inside them
// must be hoisted into reused workspace buffers (or, for push_back,
// amortized with a reserve() ahead of the loop).
#include "util/fixture_prelude.h"

namespace fedvr::opt {

struct Workspace {
  std::vector<double> grad;
  std::vector<double> step;
};

// Positive: a dim-sized vector constructed on every inner iteration.
double bad_construct_per_iteration(std::size_t iters, std::size_t dim) {
  double total = 0.0;
  for (std::size_t t = 0; t < iters; ++t) {
    std::vector<double> grad(dim);  // expect: no-alloc-in-hot-loop
    grad[0] = static_cast<double>(t);
    total += grad[0];
  }
  return total;
}

// Positive: growth calls inside the loop body.
void bad_growth_calls(std::size_t iters, std::size_t dim,
                      std::vector<double>& out) {
  for (std::size_t t = 0; t < iters; ++t) {
    out.resize(dim);                          // expect: no-alloc-in-hot-loop
    out.push_back(1.0);                       // expect: no-alloc-in-hot-loop
    out.emplace_back(2.0);                    // expect: no-alloc-in-hot-loop
  }
}

// Positive: a new-expression in a loop trips both the naked-new ban and
// the hot-loop allocation rule.
double* bad_new_in_loop(std::size_t iters) {
  double* last = nullptr;
  for (std::size_t t = 0; t < iters; ++t) {
    last = new double[4];  // expect: no-alloc-in-hot-loop, no-naked-new
  }
  return last;
}

// Negative: reference bindings to workspace buffers alias preallocated
// storage, and a default-constructed vector owns nothing.
void good_workspace_reuse(Workspace& ws, std::size_t iters) {
  for (std::size_t t = 0; t < iters; ++t) {
    std::vector<double>& grad = ws.grad;
    std::vector<double> names;
    grad[0] = static_cast<double>(t);
    (void)names;
  }
}

// Negative: reserve() ahead of the loop makes push_back allocation-free.
void good_reserved_push_back(std::size_t iters) {
  std::vector<double> acc;
  acc.reserve(iters);
  for (std::size_t t = 0; t < iters; ++t) {
    acc.push_back(static_cast<double>(t));
  }
}

// Negative: constructing and sizing buffers outside the loop is the
// pattern the rule pushes toward.
double good_hoisted_buffer(std::size_t iters, std::size_t dim) {
  std::vector<double> grad(dim);
  double total = 0.0;
  for (std::size_t t = 0; t < iters; ++t) {
    grad[0] = static_cast<double>(t);
    total += grad[0];
  }
  return total;
}

// Allowed: the author asserts the resize is a steady-state no-op (the
// buffer keeps its capacity across solves) and says why.
void allowed_warm_resize(Workspace& ws, std::size_t iters, std::size_t dim) {
  for (std::size_t t = 0; t < iters; ++t) {
    // lint:allow(no-alloc-in-hot-loop) fixture: no-op once workspace is warm
    ws.step.resize(dim);
    ws.step[0] = static_cast<double>(t);
  }
}

}  // namespace fedvr::opt
