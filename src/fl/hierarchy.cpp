#include "fl/hierarchy.h"

#include <algorithm>
#include <vector>

#include "tensor/vecops.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace fedvr::fl {

namespace {

/// Weighted mean computed over an edge-aggregator tree. Every node holds an
/// UNNORMALIZED partial sum Σ w_i·u_i plus its weight mass Σ w_i; the root
/// divides once. The flat case bypasses all of that and runs
/// fl::weighted_mean, as the default mean aggregator does.
class TreeMeanAggregator final : public Aggregator {
 public:
  explicit TreeMeanAggregator(TreeAggregatorOptions options)
      : options_(options) {}

  [[nodiscard]] std::string_view name() const override { return "tree_mean"; }

  void aggregate(std::span<const double> /*anchor*/,
                 std::span<const std::span<const double>> updates,
                 std::span<const double> weights,
                 std::span<double> out) const override {
    const std::size_t n = updates.size();
    const std::size_t dim = out.size();
    const std::size_t fanout = options_.fanout;
    if (fanout == 0 || n <= fanout) {
      // Single-level tree: the server is the only aggregator, and the
      // result is the mean aggregator's to the last bit (the flat-tree ≡
      // legacy-mean hash-equality tests pin it).
      weighted_mean(updates, weights, out);
      return;
    }

    // Leaf level: edge aggregator b folds updates [b·fanout, (b+1)·fanout),
    // serially ascending; nodes run in parallel and write disjoint slots.
    std::size_t nodes = (n + fanout - 1) / fanout;
    std::vector<double> sums(nodes * dim);
    std::vector<double> masses(nodes);
    util::ThreadPool& pool = util::ThreadPool::global();
    pool.parallel_for(0, nodes, [&](std::size_t b) {
      const std::size_t lo = b * fanout;
      const std::size_t hi = std::min(lo + fanout, n);
      const std::span<double> acc(sums.data() + b * dim, dim);
      tensor::fill(acc, 0.0);
      double mass = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        mass += weights[i];
        tensor::axpy(weights[i], updates[i], acc);
      }
      masses[b] = mass;
    });

    // Interior levels: each parent merges `fanout` child partials, again
    // serially ascending within the parent. Buffers are allocated once at
    // the widest interior level; later levels only shrink, so the resizes
    // below never reallocate.
    const std::size_t widest = (nodes + fanout - 1) / fanout;
    std::vector<double> next_sums(widest * dim);
    std::vector<double> next_masses(widest);
    while (nodes > 1) {
      const std::size_t parents = (nodes + fanout - 1) / fanout;
      // lint:allow(no-alloc-in-hot-loop) shrink-only; capacity from the widest level
      next_sums.resize(parents * dim);
      // lint:allow(no-alloc-in-hot-loop) shrink-only; capacity from the widest level
      next_masses.resize(parents);
      pool.parallel_for(0, parents, [&](std::size_t b) {
        const std::size_t lo = b * fanout;
        const std::size_t hi = std::min(lo + fanout, nodes);
        const std::span<double> acc(next_sums.data() + b * dim, dim);
        tensor::fill(acc, 0.0);
        double mass = 0.0;
        for (std::size_t c = lo; c < hi; ++c) {
          mass += masses[c];
          tensor::axpy(1.0, std::span<const double>(sums.data() + c * dim, dim),
                       acc);
        }
        next_masses[b] = mass;
      });
      sums.swap(next_sums);
      masses.swap(next_masses);
      nodes = parents;
    }

    // Root: one normalization by the total survivor mass.
    const double inv_mass = 1.0 / masses[0];
    for (std::size_t j = 0; j < dim; ++j) out[j] = sums[j] * inv_mass;
  }

 private:
  TreeAggregatorOptions options_;
};

}  // namespace

void TreeAggregatorOptions::validate() const {
  FEDVR_CHECK_MSG(fanout != 1,
                  "tree fanout 1 never contracts (each level would have as "
                  "many nodes as the last); use 0 for flat or >= 2");
}

std::shared_ptr<const Aggregator> make_tree_aggregator(
    TreeAggregatorOptions options) {
  options.validate();
  return std::make_shared<TreeMeanAggregator>(options);
}

}  // namespace fedvr::fl
