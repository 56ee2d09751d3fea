// Unit tests for the hierarchical (edge-aggregator tree) weighted mean:
// the flat tree must be bit-identical to the default MeanAggregator, deeper
// trees must agree to rounding, and results must not depend on the thread
// pool size.
#include "fl/hierarchy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fl/aggregation.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedvr::fl {
namespace {

using fedvr::util::Error;

struct Updates {
  std::vector<std::vector<double>> storage;
  std::vector<std::span<const double>> views;
  std::vector<double> weights;
  std::vector<double> anchor;
};

Updates random_updates(std::size_t n, std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  Updates u;
  u.storage.resize(n);
  u.views.reserve(n);
  u.weights.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    u.storage[i].resize(dim);
    for (double& x : u.storage[i]) x = rng.normal(0.0, 3.0);
    u.views.emplace_back(u.storage[i]);
    u.weights.push_back(rng.uniform(0.1, 5.0));
  }
  u.anchor.assign(dim, 0.25);
  return u;
}

std::vector<double> run(const Aggregator& agg, const Updates& u,
                        std::size_t dim) {
  std::vector<double> out(dim, -77.0);
  agg.aggregate(u.anchor, u.views, u.weights, out);
  return out;
}

TEST(TreeAggregator, FlatTreeIsBitIdenticalToMean) {
  const std::size_t dim = 33;
  const auto mean = make_aggregator(AggregatorKind::kMean);
  // fanout == 0 forces flat at any n; n <= fanout degenerates too.
  for (const TreeAggregatorOptions opts :
       {TreeAggregatorOptions{.fanout = 0},
        TreeAggregatorOptions{.fanout = 32}}) {
    const auto tree = make_tree_aggregator(opts);
    EXPECT_EQ(tree->name(), "tree_mean");
    for (const std::size_t n : {1u, 7u, 31u}) {
      const Updates u = random_updates(n, dim, 1000 + n);
      const auto a = run(*mean, u, dim);
      const auto b = run(*tree, u, dim);
      for (std::size_t j = 0; j < dim; ++j) {
        EXPECT_EQ(a[j], b[j]) << "n=" << n << " fanout=" << opts.fanout
                              << " coord " << j;
      }
    }
  }
}

TEST(TreeAggregator, MultiLevelAgreesWithMeanToRounding) {
  const std::size_t dim = 17;
  const std::size_t n = 100;  // fanout 4 → 25 → 7 → 2 → 1: four levels
  const Updates u = random_updates(n, dim, 42);
  const auto mean = make_aggregator(AggregatorKind::kMean);
  const auto tree = make_tree_aggregator({.fanout = 4});
  const auto a = run(*mean, u, dim);
  const auto b = run(*tree, u, dim);
  for (std::size_t j = 0; j < dim; ++j) {
    // Same weighted sum associated differently: equal to fp rounding, not
    // necessarily to the last bit.
    EXPECT_NEAR(a[j], b[j], 1e-12 * (1.0 + std::abs(a[j])));
  }
}

TEST(TreeAggregator, ResultIndependentOfPoolSize) {
  const std::size_t dim = 29;
  const std::size_t n = 200;
  const Updates u = random_updates(n, dim, 7);
  const auto tree = make_tree_aggregator({.fanout = 8});
  // A pool of one runs every node inline, serially ascending.
  util::ThreadPool::reset_global(1);
  const auto reference = run(*tree, u, dim);
  for (const std::size_t threads : {2u, 3u, 0u}) {
    util::ThreadPool::reset_global(threads);
    const auto got = run(*tree, u, dim);
    for (std::size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(reference[j], got[j]) << "threads=" << threads << " coord "
                                      << j;
    }
  }
  util::ThreadPool::reset_global(0);
}

TEST(TreeAggregator, SingleSurvivorPassesThrough) {
  const std::size_t dim = 5;
  const Updates u = random_updates(1, dim, 3);
  const auto tree = make_tree_aggregator({.fanout = 16});
  const auto out = run(*tree, u, dim);
  // One survivor: the weighted mean is the update itself (w/w = 1), though
  // via the flat path's explicit normalization.
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_DOUBLE_EQ(out[j], u.storage[0][j]);
  }
}

TEST(TreeAggregator, FanoutOneIsRejected) {
  EXPECT_THROW((void)make_tree_aggregator({.fanout = 1}), Error);
  TreeAggregatorOptions opts;
  opts.fanout = 1;
  EXPECT_THROW(opts.validate(), Error);
}

}  // namespace
}  // namespace fedvr::fl
