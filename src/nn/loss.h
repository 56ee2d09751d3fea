// Softmax cross-entropy loss head.
#pragma once

#include <cstddef>
#include <span>

namespace fedvr::nn {

/// Mean cross-entropy of softmax(logits) against integer labels.
/// logits: (batch x classes) row-major. Returns the scalar loss.
[[nodiscard]] double softmax_cross_entropy(std::size_t batch,
                                           std::size_t classes,
                                           std::span<const double> logits,
                                           std::span<const int> labels);

/// Loss and its gradient with respect to the logits:
/// d_logits = (softmax(logits) - onehot(labels)) / batch. It is
/// softmax_probabilities into d_logits, then softmax_cross_entropy_adjust.
[[nodiscard]] double softmax_cross_entropy_backward(
    std::size_t batch, std::size_t classes, std::span<const double> logits,
    std::span<const int> labels, std::span<double> d_logits);

/// The probability pass of the backward: probs = softmax(logits) row by row.
/// A row's probabilities depend on that row's logits alone. Returns the mean
/// cross-entropy.
[[nodiscard]] double softmax_probabilities(std::size_t batch,
                                           std::size_t classes,
                                           std::span<const double> logits,
                                           std::span<const int> labels,
                                           std::span<double> probs);

/// The adjustment of the backward, in place: d = (probs - onehot(labels)) /
/// batch, where `d` holds the batch's probabilities on entry.
void softmax_cross_entropy_adjust(std::size_t batch, std::size_t classes,
                                  std::span<const int> labels,
                                  std::span<double> d);

}  // namespace fedvr::nn
