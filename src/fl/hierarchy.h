// Hierarchical (edge-aggregator → server) weighted-mean aggregation.
//
// At million-device scale the server cannot fold every update itself:
// production FL systems interpose a tree of edge aggregators, each merging
// the partial sums of `fanout` children, so one level is O(fanout) work per
// node, the tree is O(log_fanout N) deep, and nodes at a level merge in
// parallel. This file provides that topology behind the existing
// fl::Aggregator seam (tree_mean plugs into TrainerOptions::aggregator like
// any other rule).
//
// Determinism contract (same as every aggregator):
//   * the tree shape is a pure function of (survivor count, fanout): node b
//     at each level owns children [b·fanout, (b+1)·fanout), in order;
//   * each node merges its children SERIALLY in ascending order — only the
//     node→thread assignment varies with pool size, and nodes write
//     disjoint output slots — so results are bit-identical across pool
//     sizes 1/2/N;
//   * a single-level tree (fanout == 0, or survivors ≤ fanout) runs
//     fl::weighted_mean, as the default mean aggregator does, so flat
//     tree_mean traces are hash-identical to legacy weighted-mean traces
//     (pinned by tests). Deeper trees associate the same weighted sum
//     differently and produce different (equally valid) last-bit rounding.
#pragma once

#include <cstddef>
#include <memory>

#include "fl/aggregation.h"

namespace fedvr::fl {

struct TreeAggregatorOptions {
  /// Children per tree node. 0 = always flat (the degenerate single-level
  /// tree, bit-identical to AggregatorKind::kMean); 1 is invalid (the tree
  /// would never contract). Production-shaped values: 16–64.
  std::size_t fanout = 32;

  /// Always-on validation (util/error.h).
  void validate() const;
};

/// Builds the tree weighted-mean aggregator ("tree_mean"). Stateless and
/// immutable — share it across trainers freely.
[[nodiscard]] std::shared_ptr<const Aggregator> make_tree_aggregator(
    TreeAggregatorOptions options = {});

}  // namespace fedvr::fl
