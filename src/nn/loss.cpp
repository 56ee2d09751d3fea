#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tensor/kernels.h"
#include "util/error.h"

namespace fedvr::nn {

namespace {
// Numerically stable mean NLL via the log-sum-exp trick; probs output is
// optional (used by the backward pass).
double cross_entropy_core(std::size_t batch, std::size_t classes,
                          std::span<const double> logits,
                          std::span<const int> labels, double* probs) {
  FEDVR_CHECK(batch > 0);
  FEDVR_CHECK(logits.size() == batch * classes);
  FEDVR_CHECK(labels.size() == batch);
  double total = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    const double* row = logits.data() + i * classes;
    const int label = labels[i];
    FEDVR_CHECK_MSG(label >= 0 && static_cast<std::size_t>(label) < classes,
                    "label " << label << " out of range");
    double max_v = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < classes; ++j) max_v = std::max(max_v, row[j]);
    double sum_exp = 0.0;
    for (std::size_t j = 0; j < classes; ++j) {
      const double e = std::exp(row[j] - max_v);
      if (probs != nullptr) probs[i * classes + j] = e;
      sum_exp += e;
    }
    if (probs != nullptr) {
      const double inv = 1.0 / sum_exp;
      for (std::size_t j = 0; j < classes; ++j) probs[i * classes + j] *= inv;
    }
    const double log_z = max_v + std::log(sum_exp);
    total += log_z - row[static_cast<std::size_t>(label)];
  }
  return total / static_cast<double>(batch);
}
}  // namespace

double softmax_cross_entropy(std::size_t batch, std::size_t classes,
                             std::span<const double> logits,
                             std::span<const int> labels) {
  return cross_entropy_core(batch, classes, logits, labels, nullptr);
}

double softmax_cross_entropy_backward(std::size_t batch, std::size_t classes,
                                      std::span<const double> logits,
                                      std::span<const int> labels,
                                      std::span<double> d_logits) {
  const double loss =
      softmax_probabilities(batch, classes, logits, labels, d_logits);
  softmax_cross_entropy_adjust(batch, classes, labels, d_logits);
  return loss;
}

double softmax_probabilities(std::size_t batch, std::size_t classes,
                             std::span<const double> logits,
                             std::span<const int> labels,
                             std::span<double> probs) {
  FEDVR_CHECK(probs.size() == batch * classes);
  return cross_entropy_core(batch, classes, logits, labels, probs.data());
}

void softmax_cross_entropy_adjust(std::size_t batch, std::size_t classes,
                                  std::span<const int> labels,
                                  std::span<double> d) {
  FEDVR_CHECK(d.size() == batch * classes);
  FEDVR_CHECK(labels.size() == batch);
  const double inv_batch = 1.0 / static_cast<double>(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const int label = labels[i];
    FEDVR_CHECK_MSG(label >= 0 && static_cast<std::size_t>(label) < classes,
                    "label " << label << " out of range");
    double* row = d.data() + i * classes;
    row[static_cast<std::size_t>(label)] -= 1.0;
    for (std::size_t j = 0; j < classes; ++j) row[j] *= inv_batch;
  }
}

}  // namespace fedvr::nn
