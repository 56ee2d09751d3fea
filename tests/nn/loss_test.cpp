#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace fedvr::nn {
namespace {

using fedvr::util::Error;
using fedvr::util::Rng;

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  const std::vector<double> logits = {0, 0, 0, 0};
  const std::vector<int> labels = {2};
  EXPECT_NEAR(softmax_cross_entropy(1, 4, logits, labels), std::log(4.0),
              1e-12);
}

TEST(SoftmaxCrossEntropy, ConfidentCorrectPredictionHasLowLoss) {
  const std::vector<double> logits = {10, 0, 0};
  const std::vector<int> labels = {0};
  EXPECT_LT(softmax_cross_entropy(1, 3, logits, labels), 1e-3);
}

TEST(SoftmaxCrossEntropy, ConfidentWrongPredictionHasHighLoss) {
  const std::vector<double> logits = {10, 0, 0};
  const std::vector<int> labels = {1};
  EXPECT_GT(softmax_cross_entropy(1, 3, logits, labels), 9.0);
}

TEST(SoftmaxCrossEntropy, AveragesOverBatch) {
  const std::vector<double> logits = {0, 0, 0,   // sample 0, label 0
                                      0, 10, 0}; // sample 1, label 1
  const std::vector<int> labels = {0, 1};
  const std::span<const double> row0(logits.data(), 3);
  const std::span<const double> row1(logits.data() + 3, 3);
  const std::span<const int> lab0(labels.data(), 1);
  const std::span<const int> lab1(labels.data() + 1, 1);
  const double l0 = softmax_cross_entropy(1, 3, row0, lab0);
  const double l1 = softmax_cross_entropy(1, 3, row1, lab1);
  const double both = softmax_cross_entropy(2, 3, logits, labels);
  EXPECT_NEAR(both, (l0 + l1) / 2.0, 1e-12);
  EXPECT_NEAR(l0, std::log(3.0), 1e-12);
}

TEST(SoftmaxCrossEntropy, StableForExtremeLogits) {
  const std::vector<double> logits = {1e4, -1e4, 0.0};
  const std::vector<int> labels = {0};
  const double loss = softmax_cross_entropy(1, 3, logits, labels);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-12);
}

TEST(SoftmaxCrossEntropy, InvalidLabelThrows) {
  const std::vector<double> logits = {0, 0};
  const std::vector<int> bad_high = {2};
  const std::vector<int> bad_low = {-1};
  EXPECT_THROW((void)softmax_cross_entropy(1, 2, logits, bad_high), Error);
  EXPECT_THROW((void)softmax_cross_entropy(1, 2, logits, bad_low), Error);
}

TEST(SoftmaxCrossEntropyBackward, GradientSumsToZeroPerRow) {
  // d_logits rows sum to zero because softmax probabilities sum to one.
  Rng rng(3);
  const std::size_t batch = 4, classes = 6;
  std::vector<double> logits(batch * classes);
  for (auto& v : logits) v = rng.normal(0, 2);
  const std::vector<int> labels = {0, 3, 5, 2};
  std::vector<double> d(batch * classes);
  (void)softmax_cross_entropy_backward(batch, classes, logits, labels, d);
  for (std::size_t i = 0; i < batch; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < classes; ++j) row_sum += d[i * classes + j];
    EXPECT_NEAR(row_sum, 0.0, 1e-12);
  }
}

TEST(SoftmaxCrossEntropyBackward, MatchesFiniteDifferences) {
  Rng rng(5);
  const std::size_t batch = 3, classes = 4;
  std::vector<double> logits(batch * classes);
  for (auto& v : logits) v = rng.normal();
  const std::vector<int> labels = {1, 0, 3};
  std::vector<double> d(batch * classes);
  const double base =
      softmax_cross_entropy_backward(batch, classes, logits, labels, d);
  EXPECT_NEAR(base, softmax_cross_entropy(batch, classes, logits, labels),
              1e-12);
  const double step = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const double orig = logits[i];
    logits[i] = orig + step;
    const double up = softmax_cross_entropy(batch, classes, logits, labels);
    logits[i] = orig - step;
    const double down = softmax_cross_entropy(batch, classes, logits, labels);
    logits[i] = orig;
    EXPECT_NEAR(d[i], (up - down) / (2 * step), 1e-7);
  }
}

TEST(SoftmaxCrossEntropy, InvariantToPerRowLogitShift) {
  // softmax(z + c·1) = softmax(z): adding a constant to one sample's logits
  // changes neither its loss nor its gradient.
  Rng rng(7);
  const std::size_t batch = 3, classes = 4;
  std::vector<double> logits(batch * classes);
  for (auto& v : logits) v = rng.normal(0.0, 3.0);
  const std::vector<int> labels = {3, 0, 2};
  const double shifts[batch] = {50.0, -30.0, 7.25};
  std::vector<double> shifted = logits;
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < classes; ++j) {
      shifted[i * classes + j] += shifts[i];
    }
  }
  const double loss = softmax_cross_entropy(batch, classes, logits, labels);
  EXPECT_NEAR(softmax_cross_entropy(batch, classes, shifted, labels), loss,
              1e-12 * loss);
  std::vector<double> d(batch * classes), d_shifted(batch * classes);
  (void)softmax_cross_entropy_backward(batch, classes, logits, labels, d);
  (void)softmax_cross_entropy_backward(batch, classes, shifted, labels,
                                       d_shifted);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_NEAR(d_shifted[i], d[i], 1e-13) << i;
  }
}

TEST(SoftmaxCrossEntropyBackward, HugeLogitsGiveExactProbabilities) {
  // exp(1000) overflows; the max-shifted softmax still gives p = (½, ½, 0).
  const std::vector<double> logits = {1000.0, 1000.0, -1000.0};
  const std::vector<int> labels = {0};
  std::vector<double> d(3);
  const double loss =
      softmax_cross_entropy_backward(1, 3, logits, labels, d);
  EXPECT_NEAR(loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(d[0], -0.5, 1e-12);
  EXPECT_NEAR(d[1], 0.5, 1e-12);
  EXPECT_NEAR(d[2], 0.0, 1e-12);
}

TEST(SoftmaxCrossEntropyBackward, GradientAtLabelIsNegative) {
  const std::vector<double> logits = {0, 0, 0};
  const std::vector<int> labels = {1};
  std::vector<double> d(3);
  (void)softmax_cross_entropy_backward(1, 3, logits, labels, d);
  EXPECT_LT(d[1], 0.0);
  EXPECT_GT(d[0], 0.0);
  EXPECT_GT(d[2], 0.0);
}

}  // namespace
}  // namespace fedvr::nn
