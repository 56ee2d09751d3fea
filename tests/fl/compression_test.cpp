#include "comm/compression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tensor/vecops.h"
#include "testing/quadratic_model.h"
#include "fl/trainer.h"
#include "util/error.h"

namespace fedvr::fl {
namespace {

using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;
using comm::RandKCompressor;
using comm::TopKCompressor;
using fedvr::util::Error;
using fedvr::util::Rng;

TEST(TopK, KeepsLargestMagnitudes) {
  const TopKCompressor comp(0.4);  // keep 2 of 5
  std::vector<double> delta = {0.1, -5.0, 0.3, 4.0, -0.2};
  Rng rng(1);
  comp.compress(delta, rng);
  EXPECT_DOUBLE_EQ(delta[0], 0.0);
  EXPECT_DOUBLE_EQ(delta[1], -5.0);
  EXPECT_DOUBLE_EQ(delta[2], 0.0);
  EXPECT_DOUBLE_EQ(delta[3], 4.0);
  EXPECT_DOUBLE_EQ(delta[4], 0.0);
}

TEST(TopK, FullFractionIsIdentity) {
  const TopKCompressor comp(1.0);
  std::vector<double> delta = {1.0, -2.0, 3.0};
  const auto original = delta;
  Rng rng(1);
  comp.compress(delta, rng);
  EXPECT_EQ(delta, original);
}

TEST(TopK, KeepsAtLeastOneCoordinate) {
  const TopKCompressor comp(0.01);
  EXPECT_EQ(comp.kept(5), 1u);
  std::vector<double> delta = {0.0, 0.0, 7.0, 0.0, 0.0};
  Rng rng(1);
  comp.compress(delta, rng);
  EXPECT_DOUBLE_EQ(delta[2], 7.0);
}

TEST(TopK, WireBytesReflectSparsity) {
  const TopKCompressor comp(0.1);
  // 10% of 1000 = 100 coords x (8 value + 4 index) bytes.
  EXPECT_EQ(comp.wire_bytes(1000), 100u * 12u);
  EXPECT_LT(comp.wire_bytes(1000), 1000u * 8u);
}

TEST(TopK, RejectsBadFraction) {
  EXPECT_THROW(TopKCompressor(0.0), Error);
  EXPECT_THROW(TopKCompressor(1.5), Error);
}

TEST(RandK, KeepsExactlyKScaledCoordinates) {
  const RandKCompressor comp(0.25);  // keep 2 of 8
  std::vector<double> delta(8, 1.0);
  Rng rng(3);
  comp.compress(delta, rng);
  std::size_t kept = 0;
  for (double v : delta) {
    if (v != 0.0) {
      EXPECT_DOUBLE_EQ(v, 4.0);  // scaled by dim/k = 8/2
      ++kept;
    }
  }
  EXPECT_EQ(kept, 2u);
}

TEST(RandK, IsUnbiasedInExpectation) {
  const RandKCompressor comp(0.5);
  const std::vector<double> original = {1.0, -2.0, 3.0, -4.0};
  std::vector<double> mean(4, 0.0);
  const int trials = 20000;
  Rng rng(7);
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> delta = original;
    comp.compress(delta, rng);
    tensor::axpy(1.0 / trials, delta, mean);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(mean[i], original[i], 0.05 * std::abs(original[i]) + 0.02);
  }
}

TEST(TopK, TieBreaksByLowestIndex) {
  // Equal magnitudes are ordered by index, so the kept set is unique:
  // nth_element's unspecified tie permutation (which differs across
  // standard libraries) must never decide which coordinate survives.
  const TopKCompressor comp(0.5);  // keep 3 of 6
  std::vector<double> delta = {1.0, -1.0, 1.0, -1.0, 1.0, 1.0};
  Rng rng(1);
  comp.compress(delta, rng);
  const std::vector<double> expected = {1.0, -1.0, 1.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(delta, expected);
}

TEST(TopK, TieHeavyInputIsDeterministic) {
  // Duplicated magnitudes interleaved with strictly larger ones: the large
  // entries always survive, and ties fill the remaining slots lowest-index
  // first.
  const TopKCompressor comp(0.375);  // keep 3 of 8
  std::vector<double> delta = {2.0, 1.0, -2.0, 1.0, 2.0, 1.0, -1.0, 1.0};
  Rng rng(9);
  comp.compress(delta, rng);
  // |2.0| entries at indices 0, 2, 4 fill all three slots by index order.
  const std::vector<double> expected = {2.0, 0.0, -2.0, 0.0, 2.0,
                                        0.0, 0.0,  0.0};
  EXPECT_EQ(delta, expected);
  // Repeated compression of the same input gives byte-identical output.
  std::vector<double> again = {2.0, 1.0, -2.0, 1.0, 2.0, 1.0, -1.0, 1.0};
  Rng rng2(1234);
  comp.compress(again, rng2);
  EXPECT_EQ(again, expected);
}

TEST(RandK, ScaleUsesRealizedKeepRateNotTheNominalFraction) {
  // dim = 5, fraction = 0.01: the floor of one kept coordinate makes the
  // realized keep-rate 1/5, so the survivor must be scaled by 5 — scaling
  // by 1/fraction = 100 would inflate the estimator by 20x.
  const RandKCompressor comp(0.01);
  ASSERT_EQ(comp.kept(5), 1u);
  std::vector<double> delta(5, 1.0);
  Rng rng(11);
  comp.compress(delta, rng);
  double sum = 0.0;
  for (double v : delta) sum += v;
  EXPECT_DOUBLE_EQ(sum, 5.0);  // exactly one survivor, scaled by dim/k = 5
}

TEST(RandK, UnbiasedOnAwkwardDimension) {
  // dim = 7, fraction = 0.3: k = round(2.1) = 2, so the realized keep-rate
  // 2/7 differs from the nominal 0.3. Averaging many compressions must
  // still recover the input — the regression the 1/fraction scaling bug
  // would fail (systematic 5% inflation, far outside the tolerance).
  const RandKCompressor comp(0.3);
  ASSERT_EQ(comp.kept(7), 2u);
  const std::vector<double> original = {1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0};
  std::vector<double> mean(7, 0.0);
  const int trials = 40000;
  Rng rng(17);
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> delta = original;
    comp.compress(delta, rng);
    tensor::axpy(1.0 / trials, delta, mean);
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(mean[i], original[i], 0.03 * std::abs(original[i]));
  }
}

TEST(RandK, DifferentSeedsPickDifferentSupports) {
  const RandKCompressor comp(0.2);
  std::vector<double> a(20, 1.0), b(20, 1.0);
  Rng r1(1), r2(2);
  comp.compress(a, r1);
  comp.compress(b, r2);
  EXPECT_NE(a, b);
}

// ---- Trainer integration ----

constexpr std::size_t kDim = 6;

data::FederatedDataset small_fed() {
  data::FederatedDataset fed;
  fed.train.push_back(quadratic_dataset(20, kDim, 0.0, 0.5, 1));
  fed.train.push_back(quadratic_dataset(20, kDim, 2.0, 0.5, 2));
  fed.test.push_back(quadratic_dataset(5, kDim, 0.0, 0.5, 3));
  fed.test.push_back(quadratic_dataset(5, kDim, 2.0, 0.5, 4));
  return fed;
}

opt::LocalSolver quad_solver(std::shared_ptr<const nn::Model> model) {
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kFullGradient;
  o.tau = 4;
  o.eta = 0.2;
  o.mu = 0.5;
  return opt::LocalSolver(std::move(model), o);
}

TEST(TrainerCompression, ReducesUplinkBytes) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions plain;
  plain.rounds = 4;
  TrainerOptions compressed = plain;
  compressed.comm.compressor = std::make_shared<TopKCompressor>(0.5);
  const Trainer t1(model, fed, plain);
  const Trainer t2(model, fed, compressed);
  const auto a = t1.run(quad_solver(model), "plain");
  const auto b = t2.run(quad_solver(model), "topk");
  EXPECT_LT(b.back().comm_bytes, a.back().comm_bytes);
  // Downlink is still dense: bytes don't collapse to the uplink alone.
  EXPECT_GT(b.back().comm_bytes,
            4u * 2u * kDim * sizeof(double) / 2u);
}

TEST(TrainerCompression, StillConvergesOnQuadratic) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions opts;
  opts.rounds = 25;
  opts.comm.compressor = std::make_shared<TopKCompressor>(0.5);
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(quad_solver(model), "topk");
  EXPECT_LT(trace.back().train_loss, trace.rounds.front().train_loss);
}

TEST(TrainerCompression, FullFractionMatchesUncompressedRun) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions plain;
  plain.rounds = 5;
  TrainerOptions identity = plain;
  identity.comm.compressor = std::make_shared<TopKCompressor>(1.0);
  const Trainer t1(model, fed, plain);
  const Trainer t2(model, fed, identity);
  const auto a = t1.run(quad_solver(model), "x");
  const auto b = t2.run(quad_solver(model), "x");
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_NEAR(a.rounds[i].train_loss, b.rounds[i].train_loss, 1e-12);
  }
}

TEST(TrainerStragglers, RoundTimeIsTheSlowestParticipant) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions opts;
  opts.rounds = 3;
  opts.per_device_timing = {TimingModel{.d_com = 1.0, .d_cmp = 0.1},
                            TimingModel{.d_com = 1.0, .d_cmp = 2.0}};
  const Trainer trainer(model, fed, opts);
  const std::size_t tau = 4;
  const auto trace = trainer.run(quad_solver(model), "t");
  const double slow_round = 1.0 + 2.0 * static_cast<double>(tau);
  EXPECT_NEAR(trace.back().model_time, 3.0 * slow_round, 1e-12);
}

TEST(TrainerStragglers, WrongTimingVectorLengthThrows) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions opts;
  opts.per_device_timing = {TimingModel{}};  // 1 entry for 2 devices
  EXPECT_THROW(Trainer(model, fed, opts), Error);
}

TEST(TrainerStragglers, SamplingCanDodgeTheStraggler) {
  // With client sampling of 1 device per round, rounds that exclude the
  // slow device cost less: cumulative model time < all-rounds-slow.
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions opts;
  opts.rounds = 10;
  opts.seed = 3;
  opts.devices_per_round = 1;
  opts.per_device_timing = {TimingModel{.d_com = 1.0, .d_cmp = 0.1},
                            TimingModel{.d_com = 1.0, .d_cmp = 5.0}};
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(quad_solver(model), "t");
  const double all_slow = 10.0 * (1.0 + 5.0 * 4.0);
  EXPECT_LT(trace.back().model_time, all_slow);
}

}  // namespace
}  // namespace fedvr::fl
