// The Model interface: everything the federated solvers need from a
// learning task.
//
// A Model is immutable and thread-safe; parameters travel as flat vectors
// owned by the caller. Gradients are *evaluable at arbitrary parameter
// vectors* — the property SVRG (eq. 8b) and SARAH (eq. 8a) rely on when they
// combine gradients at the current iterate with gradients at an anchor.
//
// All losses and gradients are averaged over the given index set, matching
// the paper's F_n(w) = (1/D_n) sum_i f_i(w) (eq. 1).
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "tensor/aligned.h"
#include "util/rng.h"

namespace fedvr::nn {

/// What Model::record_gradient keeps of a full-batch pass at a parameter
/// vector, for Model::replay_gradient at that vector: `rows` samples'
/// `width` outputs each (FeedForwardModel keeps softmax probabilities). The
/// caller owns it; its storage keeps its capacity from record to record.
struct GradientRecord {
  tensor::AlignedVector<double> outputs;  // rows x width, row-major
  std::size_t rows = 0;   // 0 when the model keeps nothing
  std::size_t width = 0;

  /// Starts a record at w, holding no rows yet.
  void start(std::span<const double> w);
  /// Under fedvr::check, throws unless w is the vector the record was taken
  /// at: same address and length, and the same bits at kProbes evenly
  /// spaced coordinates (first and last included). O(1), so a moved iterate
  /// or a re-used buffer is caught, not a change confined to unprobed
  /// coordinates.
  void check_taken_at(std::span<const double> w) const;

 private:
  static constexpr std::size_t kProbes = 8;
  [[nodiscard]] static std::size_t probe(std::size_t k, std::size_t size);
  const double* at_ = nullptr;
  std::size_t at_size_ = 0;
  std::array<double, kProbes> at_values_{};
};

class Model {
 public:
  virtual ~Model() = default;

  [[nodiscard]] virtual std::size_t num_parameters() const = 0;

  /// Writes a fresh initialization into `w`.
  virtual void initialize(util::Rng& rng, std::span<double> w) const = 0;

  /// Mean loss over ds[indices] at parameters w.
  [[nodiscard]] virtual double loss(
      std::span<const double> w, const data::Dataset& ds,
      std::span<const std::size_t> indices) const = 0;

  /// Mean loss and gradient over ds[indices]; `grad` is overwritten.
  virtual double loss_and_gradient(std::span<const double> w,
                                   const data::Dataset& ds,
                                   std::span<const std::size_t> indices,
                                   std::span<double> grad) const = 0;

  /// Predicted class per sample.
  virtual void predict(std::span<const double> w, const data::Dataset& ds,
                       std::span<const std::size_t> indices,
                       std::span<std::size_t> out) const = 0;

  /// full_gradient's loss and gradient, bit for bit, that also keeps in
  /// `record` what replay_gradient needs to recompute mini-batch gradients
  /// at this w (row i of the record is sample i of ds). The default keeps
  /// no rows.
  virtual double record_gradient(std::span<const double> w,
                                 const data::Dataset& ds,
                                 std::span<double> grad,
                                 GradientRecord& record) const;

  /// loss_and_gradient's gradient over ds[indices], bit for bit, at the w
  /// `record` was taken at; record_rows[k] is the recorded row of sample
  /// indices[k]. The default recomputes it; a model that keeps outputs
  /// skips its forward pass. Under fedvr::check, throws if w is not the
  /// recorded vector or a record row is out of range.
  virtual void replay_gradient(std::span<const double> w,
                               const data::Dataset& ds,
                               std::span<const std::size_t> indices,
                               const GradientRecord& record,
                               std::span<const std::size_t> record_rows,
                               std::span<double> grad) const;

  // ---- Convenience wrappers (implemented on the virtual core). ----

  /// Mean loss over the whole dataset.
  [[nodiscard]] double full_loss(std::span<const double> w,
                                 const data::Dataset& ds) const;

  /// Mean loss and full-batch gradient over the whole dataset — the
  /// v^(0) = grad F_n(w^(0)) anchor evaluation on Algorithm 1 line 4.
  double full_gradient(std::span<const double> w, const data::Dataset& ds,
                       std::span<double> grad) const;

  /// Fraction of correctly classified samples.
  [[nodiscard]] double accuracy(std::span<const double> w,
                                const data::Dataset& ds) const;

  /// Allocates and initializes a parameter vector.
  [[nodiscard]] std::vector<double> initial_parameters(util::Rng& rng) const;
};

/// All-sample index vector [0, n) — helper for full-batch calls.
[[nodiscard]] std::vector<std::size_t> all_indices(std::size_t n);

/// The identity indices [0, n) as a view of the calling thread's iota,
/// which allocates only when n exceeds every earlier n on this thread. The
/// span stays valid until this thread asks for a larger n.
[[nodiscard]] std::span<const std::size_t> identity_indices(std::size_t n);

}  // namespace fedvr::nn
