#include "theory/smoothness.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "nn/models.h"
#include "testing/quadratic_model.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace fedvr::theory {
namespace {

using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;
using fedvr::util::Rng;

TEST(Smoothness, QuadraticModelHasUnitCurvature) {
  // f_i(w) = 0.5||w - x_i||^2 has Hessian = I exactly: L = 1.
  const QuadraticModel model(6);
  const auto ds = quadratic_dataset(20, 6, 0.0, 1.0, 5);
  Rng rng(1);
  std::vector<double> w(6, 0.3);
  const double L = estimate_smoothness(model, ds, w, rng);
  EXPECT_NEAR(L, 1.0, 1e-5);
}

TEST(Smoothness, ScalesWithLossScaling) {
  // Estimating on 3x the data values does not change curvature of the
  // quadratic (Hessian is I regardless of x), so instead scale via L2:
  // logistic regression with l2 = c shifts the Hessian by +c I.
  const auto plain = nn::make_logistic_regression(5, 3, 0.0);
  const auto ridged = nn::make_logistic_regression(5, 3, 2.0);
  data::Dataset ds(tensor::Shape({5}), 40, 3);
  Rng data_rng(7);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (auto& v : ds.mutable_sample(i)) v = data_rng.normal();
    ds.set_label(i, static_cast<int>(data_rng.below(3)));
  }
  Rng rng(3);
  std::vector<double> w(plain->num_parameters(), 0.0);
  Rng r1(11), r2(11);
  const double L_plain = estimate_smoothness(*plain, ds, w, r1);
  const double L_ridged = estimate_smoothness(*ridged, ds, w, r2);
  EXPECT_NEAR(L_ridged - L_plain, 2.0, 0.05);
}

TEST(Smoothness, LogisticRegressionCurvatureIsBoundedByGram) {
  // CE-softmax Hessian satisfies H <= 0.5 * lambda_max(X^T X / n) (in the
  // 2-class case 0.25); use the loose 1.0x bound as a sanity envelope.
  const auto model = nn::make_logistic_regression(4, 2);
  data::Dataset ds(tensor::Shape({4}), 60, 2);
  Rng data_rng(13);
  double max_row_sq = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    double row_sq = 0.0;
    for (auto& v : ds.mutable_sample(i)) {
      v = data_rng.normal();
      row_sq += v * v;
    }
    max_row_sq = std::max(max_row_sq, row_sq);
    ds.set_label(i, static_cast<int>(data_rng.below(2)));
  }
  Rng rng(17);
  std::vector<double> w(model->num_parameters(), 0.0);
  const double L = estimate_smoothness(*model, ds, w, rng);
  EXPECT_GT(L, 0.0);
  EXPECT_LT(L, max_row_sq);  // generous upper envelope
}

TEST(Smoothness, DeterministicInRngState) {
  const QuadraticModel model(4);
  const auto ds = quadratic_dataset(10, 4, 1.0, 1.0, 19);
  std::vector<double> w(4, 0.0);
  Rng r1(23), r2(23);
  EXPECT_DOUBLE_EQ(estimate_smoothness(model, ds, w, r1),
                   estimate_smoothness(model, ds, w, r2));
}

TEST(Smoothness, SubsamplesLargeDatasets) {
  const QuadraticModel model(3);
  const auto ds = quadratic_dataset(2000, 3, 0.0, 1.0, 29);
  SmoothnessOptions opt;
  opt.max_samples = 50;  // force the subsampling path
  Rng rng(31);
  std::vector<double> w(3, 0.0);
  EXPECT_NEAR(estimate_smoothness(model, ds, w, rng, opt), 1.0, 1e-5);
}

TEST(Smoothness, SameBitsAtEveryPoolSize) {
  // A CNN's gradient fans its batch out across the thread pool (and its
  // GEMMs split row blocks there); L must keep its bits at every pool size.
  nn::CnnConfig cnn;
  cnn.side = 8;
  cnn.conv1_channels = 2;
  cnn.conv2_channels = 3;
  cnn.kernel = 3;
  cnn.num_classes = 5;
  const auto model = nn::make_two_layer_cnn(cnn);
  data::Dataset ds(tensor::Shape({1, 8, 8}), 40, 5);
  Rng data_rng(37);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (auto& v : ds.mutable_sample(i)) v = data_rng.normal();
    ds.set_label(i, static_cast<int>(data_rng.below(5)));
  }
  std::vector<double> w(model->num_parameters());
  for (auto& v : w) v = 0.1 * data_rng.normal();
  SmoothnessOptions opt;
  opt.power_iterations = 6;
  auto at_pool = [&](std::size_t threads) {
    util::ThreadPool::reset_global(threads);
    Rng rng(41);
    return std::bit_cast<std::uint64_t>(
        estimate_smoothness(*model, ds, w, rng, opt));
  };
  const std::uint64_t serial = at_pool(1);
  const std::uint64_t pooled = at_pool(4);
  util::ThreadPool::reset_global(0);
  EXPECT_EQ(serial, pooled);
  EXPECT_GT(std::bit_cast<double>(serial), 0.0);
}

}  // namespace
}  // namespace fedvr::theory
