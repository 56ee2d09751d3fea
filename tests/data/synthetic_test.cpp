#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/error.h"
#include "util/thread_pool.h"

namespace fedvr::data {
namespace {

using fedvr::util::Error;

TEST(PowerLawSizes, RespectsRangeAndCount) {
  const auto sizes = power_law_sizes(100, 37, 3277, 1.5, 42);
  EXPECT_EQ(sizes.size(), 100u);
  for (auto s : sizes) {
    EXPECT_GE(s, 37u);
    EXPECT_LE(s, 3277u);
  }
  EXPECT_EQ(*std::min_element(sizes.begin(), sizes.end()), 37u);
  EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()), 3277u);
}

TEST(PowerLawSizes, IsHeavyTailed) {
  // Median far below mean is the power-law signature.
  auto sizes = power_law_sizes(200, 37, 3277, 1.5, 7);
  std::sort(sizes.begin(), sizes.end());
  const double median = static_cast<double>(sizes[sizes.size() / 2]);
  double mean = 0;
  for (auto s : sizes) mean += static_cast<double>(s);
  mean /= static_cast<double>(sizes.size());
  EXPECT_LT(median, mean);
}

TEST(PowerLawSizes, DeterministicInSeed) {
  EXPECT_EQ(power_law_sizes(50, 10, 100, 1.0, 3),
            power_law_sizes(50, 10, 100, 1.0, 3));
  EXPECT_NE(power_law_sizes(50, 10, 100, 1.0, 3),
            power_law_sizes(50, 10, 100, 1.0, 4));
}

TEST(PowerLawSizes, RejectsBadArgs) {
  EXPECT_THROW((void)power_law_sizes(0, 10, 100, 1.0, 1), Error);
  EXPECT_THROW((void)power_law_sizes(5, 1, 100, 1.0, 1), Error);
  EXPECT_THROW((void)power_law_sizes(5, 100, 10, 1.0, 1), Error);
}

TEST(SyntheticDevice, ShapesAndLabelsAreValid) {
  SyntheticConfig cfg;
  cfg.dim = 20;
  cfg.num_classes = 5;
  const Dataset d = make_synthetic_device(cfg, 3, 50);
  EXPECT_EQ(d.size(), 50u);
  EXPECT_EQ(d.feature_dim(), 20u);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(d.label(i), 0);
    EXPECT_LT(d.label(i), 5);
  }
}

TEST(SyntheticDevice, LabelsAreLearnableFromFeatures) {
  // The generating model is linear; the argmax label must be recoverable
  // from the features by construction — sanity-check label diversity.
  SyntheticConfig cfg;
  const Dataset d = make_synthetic_device(cfg, 0, 500);
  std::set<int> labels;
  for (std::size_t i = 0; i < d.size(); ++i) labels.insert(d.label(i));
  EXPECT_GE(labels.size(), 2u);
}

TEST(SyntheticDevice, DevicesDiffer) {
  SyntheticConfig cfg;
  const Dataset a = make_synthetic_device(cfg, 0, 10);
  const Dataset b = make_synthetic_device(cfg, 1, 10);
  // Feature distributions differ across devices (different v_k).
  double diff = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    diff += std::abs(a.sample(i)[0] - b.sample(i)[0]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(SyntheticDevice, DeterministicInSeedAndDevice) {
  SyntheticConfig cfg;
  const Dataset a = make_synthetic_device(cfg, 2, 10);
  const Dataset b = make_synthetic_device(cfg, 2, 10);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_DOUBLE_EQ(a.sample(i)[0], b.sample(i)[0]);
  }
}

// A device's first samples do not depend on how many it has: features are
// drawn sample by sample before any label, and a label is the argmax of
// logits that the small GEMM path (20 samples) and the blocked one (150)
// compute with the same FMA chain at dim 60.
TEST(SyntheticDevice, FirstSamplesDoNotDependOnTheDeviceSize) {
  SyntheticConfig cfg;
  const Dataset few = make_synthetic_device(cfg, 3, 20);
  const Dataset many = make_synthetic_device(cfg, 3, 150);
  for (std::size_t i = 0; i < few.size(); ++i) {
    EXPECT_EQ(few.label(i), many.label(i)) << "sample " << i;
    const auto a = few.sample(i);
    const auto b = many.sample(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "sample " << i;
  }
}

TEST(MakeSynthetic, SameDataAtEveryPoolSize) {
  SyntheticConfig cfg;
  cfg.num_devices = 6;
  cfg.min_samples = 40;
  cfg.max_samples = 400;
  util::ThreadPool::reset_global(1);
  const FederatedDataset serial = make_synthetic(cfg);
  util::ThreadPool::reset_global(3);
  const FederatedDataset pooled = make_synthetic(cfg);
  util::ThreadPool::reset_global(0);
  ASSERT_EQ(serial.num_devices(), pooled.num_devices());
  for (std::size_t k = 0; k < serial.num_devices(); ++k) {
    const Dataset& a = serial.train[k];
    const Dataset& b = pooled.train[k];
    ASSERT_EQ(a.size(), b.size());
    const auto fa = a.rows(0, a.size());
    const auto fb = b.rows(0, b.size());
    EXPECT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin())) << k;
    const auto la = a.labels(0, a.size());
    const auto lb = b.labels(0, b.size());
    EXPECT_TRUE(std::equal(la.begin(), la.end(), lb.begin())) << k;
  }
}

TEST(MakeSynthetic, ProducesPerDeviceTrainTestSplits) {
  SyntheticConfig cfg;
  cfg.num_devices = 10;
  cfg.min_samples = 40;
  cfg.max_samples = 100;
  const FederatedDataset fed = make_synthetic(cfg);
  EXPECT_EQ(fed.num_devices(), 10u);
  ASSERT_EQ(fed.test.size(), 10u);
  for (std::size_t k = 0; k < 10; ++k) {
    const std::size_t total = fed.train[k].size() + fed.test[k].size();
    EXPECT_GE(total, 40u);
    EXPECT_LE(total, 100u);
    // 75/25 split within rounding.
    EXPECT_NEAR(static_cast<double>(fed.train[k].size()) /
                    static_cast<double>(total),
                0.75, 0.05);
  }
}

TEST(MakeSyntheticIid, DevicesShareTheDistribution) {
  SyntheticConfig cfg;
  cfg.num_devices = 6;
  cfg.min_samples = 40;
  cfg.max_samples = 120;
  const FederatedDataset fed = make_synthetic_iid(cfg);
  EXPECT_EQ(fed.num_devices(), 6u);
  // Per-coordinate feature means agree across devices (same v_k), unlike
  // the heterogeneous generator.
  auto mean_feature0 = [](const Dataset& d) {
    double sum = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) sum += d.sample(i)[0];
    return sum / static_cast<double>(d.size());
  };
  const double m0 = mean_feature0(fed.train[0]);
  for (std::size_t k = 1; k < 6; ++k) {
    EXPECT_NEAR(mean_feature0(fed.train[k]), m0, 0.5);
  }
}

TEST(MakeSyntheticIid, SizesStillFollowPowerLaw) {
  SyntheticConfig cfg;
  cfg.num_devices = 8;
  cfg.min_samples = 30;
  cfg.max_samples = 200;
  const FederatedDataset fed = make_synthetic_iid(cfg);
  std::size_t min_total = 1e9, max_total = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    const std::size_t total = fed.train[k].size() + fed.test[k].size();
    min_total = std::min(min_total, total);
    max_total = std::max(max_total, total);
  }
  EXPECT_GE(min_total, 30u);
  EXPECT_LE(max_total, 200u);
  EXPECT_GT(max_total, 2 * min_total);  // genuinely spread out
}

TEST(MakeSyntheticIid, SamplesArePartitionedNotShared) {
  SyntheticConfig cfg;
  cfg.num_devices = 3;
  cfg.min_samples = 20;
  cfg.max_samples = 40;
  const FederatedDataset fed = make_synthetic_iid(cfg);
  // Feature vectors across devices must all be distinct draws.
  const auto a = fed.train[0].sample(0);
  const auto b = fed.train[1].sample(0);
  double diff = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) diff += std::abs(a[j] - b[j]);
  EXPECT_GT(diff, 1e-9);
}

TEST(MakeSynthetic, AlphaBetaZeroStillHeterogeneous) {
  SyntheticConfig cfg;
  cfg.num_devices = 4;
  cfg.alpha = 0.0;
  cfg.beta = 0.0;
  cfg.min_samples = 40;
  cfg.max_samples = 60;
  const FederatedDataset fed = make_synthetic(cfg);
  // Local label distributions still differ (per-device true models).
  const auto h0 = fed.train[0].class_histogram();
  const auto h1 = fed.train[1].class_histogram();
  EXPECT_NE(h0, h1);
}

}  // namespace
}  // namespace fedvr::data
