// Self-tests of the benchmark's own machinery: the forwarding decorators
// are hash-neutral, every workload's traced run matches its untraced run,
// and the CNN layer probe's prefix differences add up to the network.
//
//   .bench_build/perfbench/perfbench_selftest   (or: python3 perfbench/run.py --selftest)
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "comm/compression.h"
#include "data/federation.h"
#include "data/synthetic.h"
#include "decorators.h"
#include "fl/aggregation.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "opt/local_solver.h"
#include "probes.h"
#include "workloads.h"

namespace {

using namespace fedvr;
using perfbench::LayerStats;

enum class Decorate { kNone, kModel, kFederation, kAggregator, kCompressor };

// A tiny top-k+EF run with exactly one seam decorated; returns its hash.
std::uint64_t tiny_run_hash(Decorate which, LayerStats& stats) {
  data::SyntheticConfig cfg;
  cfg.num_devices = 5;
  cfg.min_samples = 20;
  cfg.max_samples = 40;
  cfg.seed = 4;
  static const data::FederatedDataset fed = data::make_synthetic(cfg);
  std::shared_ptr<const nn::Model> model =
      nn::make_logistic_regression(cfg.dim, cfg.num_classes);
  std::shared_ptr<const data::Federation> federation =
      std::make_shared<data::InMemoryFederation>(fed);
  fl::TrainerOptions options;
  options.rounds = 3;
  options.seed = 9;
  options.aggregator = fl::make_aggregator(fl::AggregatorKind::kMean);
  options.comm.compressor = std::make_shared<comm::TopKCompressor>(0.2);
  options.comm.error_feedback = true;
  switch (which) {
    case Decorate::kNone:
      break;
    case Decorate::kModel:
      model = std::make_shared<perfbench::CountingModel>(model, stats);
      break;
    case Decorate::kFederation:
      federation =
          std::make_shared<perfbench::CountingFederation>(federation, stats);
      break;
    case Decorate::kAggregator:
      options.aggregator = std::make_shared<perfbench::CountingAggregator>(
          options.aggregator, stats);
      break;
    case Decorate::kCompressor:
      options.comm.compressor = std::make_shared<perfbench::CountingCompressor>(
          options.comm.compressor, stats);
      break;
  }
  opt::LocalSolverOptions so;
  so.tau = 4;
  so.batch_size = 4;
  so.eta = 0.05;
  const fl::Trainer trainer(model, federation, options);
  return trainer.run(opt::LocalSolver(model, so), "tiny").final_param_hash;
}

TEST(Decorators, EachForwardsHashNeutrally) {
  LayerStats none;
  const std::uint64_t reference = tiny_run_hash(Decorate::kNone, none);
  struct Case {
    Decorate which;
    const perfbench::CallStats& (*calls)(const LayerStats&);
  };
  const Case cases[] = {
      {Decorate::kModel, [](const LayerStats& s) -> const perfbench::CallStats& {
         return s.grad;
       }},
      {Decorate::kFederation,
       [](const LayerStats& s) -> const perfbench::CallStats& {
         return s.train;
       }},
      {Decorate::kAggregator,
       [](const LayerStats& s) -> const perfbench::CallStats& {
         return s.aggregate;
       }},
      {Decorate::kCompressor,
       [](const LayerStats& s) -> const perfbench::CallStats& {
         return s.compress;
       }},
  };
  for (const Case& c : cases) {
    LayerStats stats;
    EXPECT_EQ(tiny_run_hash(c.which, stats), reference)
        << "decorator " << static_cast<int>(c.which);
    EXPECT_GT(c.calls(stats).calls.load(), 0U)
        << "decorator " << static_cast<int>(c.which) << " saw no calls";
  }
}

TEST(Workloads, TracedRunMatchesUntracedOnEveryWorkloadAndProxSkip) {
  std::vector<std::string> names = perfbench::workload_names();
  names.emplace_back("proxskip probe");
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto wl = name == "proxskip probe" ? perfbench::make_proxskip(true)
                                       : perfbench::make_tiny_workload(name);
    ASSERT_NE(wl, nullptr);
    (void)wl->setup(3);
    const perfbench::RunResult untraced = wl->run(nullptr);
    const perfbench::RunResult again = wl->run(nullptr);
    LayerStats stats;
    const perfbench::RunResult traced = wl->run(&stats);
    EXPECT_EQ(untraced.final_param_hash, again.final_param_hash);
    EXPECT_EQ(untraced.final_param_hash, traced.final_param_hash);
    EXPECT_TRUE(untraced.met_target);
    EXPECT_GT(untraced.rounds, 0U);
    EXPECT_GT(stats.grad.calls.load(), 0U);
  }
}

TEST(Workloads, SameSeedSameInputs) {
  auto a = perfbench::make_tiny_workload("convex_fig2");
  auto b = perfbench::make_tiny_workload("convex_fig2");
  (void)a->setup(21);
  (void)b->setup(21);
  EXPECT_EQ(a->run(nullptr).final_param_hash,
            b->run(nullptr).final_param_hash);
  (void)b->setup(22);
  EXPECT_NE(a->run(nullptr).final_param_hash,
            b->run(nullptr).final_param_hash);
}

TEST(Probes, CnnPrefixDifferencesAddUpToTheNetwork) {
  perfbench::CnnShape shape;
  shape.batch = 4;
  const perfbench::CnnLayerProbe p = perfbench::probe_cnn_layers(shape, 9);
  const double sum = p.conv1_ms + p.act_pool_ms + p.conv2_ms + p.dense_ms;
  // Medians of per-repetition differences telescope only approximately.
  EXPECT_NEAR(sum, p.whole_ms, 3.0 * p.spread_ms + 0.05 * p.whole_ms);
  EXPECT_GT(p.conv1_ms, 0.0);
  EXPECT_GT(p.conv2_ms, 0.0);
  // The independent whole-model gradient adds only the softmax head and the
  // sample gather, so it agrees with the prefix sum within the probe's
  // spread plus a small allowance for that head.
  EXPECT_NEAR(sum, p.model_grad_ms, 3.0 * p.spread_ms + 0.15 * sum);
}

}  // namespace
