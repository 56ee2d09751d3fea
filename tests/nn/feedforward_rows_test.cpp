// FeedForwardModel's two row paths and its one-chunk gradient.
//
// A chunk whose indices are one ascending contiguous run is read in place
// from the dataset; any other chunk is gathered into a copy first. Both
// paths must give the same bits for loss, loss_and_gradient and predict,
// on either side of the max_chunk boundary. A batch that fits one chunk
// backpropagates straight into the zeroed gradient, which must equal the
// general formula (backward into a zeroed buffer, then axpy(count/n = 1)
// into a zeroed gradient) bit for bit, sign of zero included.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "nn/loss.h"
#include "nn/models.h"
#include "tensor/vecops.h"
#include "testing/dense_relu_dense.h"
#include "util/rng.h"

namespace fedvr::nn {
namespace {

using util::Rng;

constexpr std::size_t kChunk = 16;

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// Random rows whose feature 0 is zero in every sample, so the gradient
// has exact-zero entries whose sign bits the tests compare.
data::Dataset dataset(tensor::Shape shape, std::size_t n, Rng& rng) {
  data::Dataset ds(shape, n, 10);
  for (std::size_t i = 0; i < n; ++i) {
    auto row = ds.mutable_sample(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = j == 0 ? 0.0 : rng.normal();
    }
    ds.set_label(i, static_cast<int>(rng.below(10)));
  }
  return ds;
}

// The same model with a max_chunk of kChunk.
std::shared_ptr<const FeedForwardModel> chunked(
    const std::shared_ptr<FeedForwardModel>& model) {
  return std::make_shared<FeedForwardModel>(
      std::shared_ptr<const Sequential>(model, &model->net()),
      model->l2_reg(), kChunk);
}

struct Named {
  std::string name;
  std::shared_ptr<const FeedForwardModel> model;
  tensor::Shape shape;
};

std::vector<Named> models() {
  CnnConfig cnn;
  cnn.side = 12;
  cnn.conv1_channels = 4;
  cnn.conv2_channels = 8;
  return {
      {"logistic", chunked(make_logistic_regression(40, 10)),
       tensor::Shape({40})},
      {"logistic_l2", chunked(make_logistic_regression(40, 10, 0.01)),
       tensor::Shape({40})},
      {"mlp", chunked(testing::dense_relu_dense(40, 24, 10)),
       tensor::Shape({40})},
      {"cnn", chunked(make_two_layer_cnn(cnn)), tensor::Shape({1, 12, 12})},
  };
}

TEST(FeedForwardRows, InPlaceAndGatheredRowsGiveTheSameBits) {
  for (const auto& m : models()) {
    Rng rng(7);
    std::vector<double> w(m.model->num_parameters());
    m.model->initialize(rng, w);
    for (const std::size_t count :
         {kChunk - 1, kChunk, kChunk + 1, 2 * kChunk + 3}) {
      const std::string label = m.name + " count=" + std::to_string(count);
      // Rows 3..3+count of `ds`, once as a contiguous run and once through
      // every other index of an interleaved copy.
      const auto ds = dataset(m.shape, count + 5, rng);
      const auto noise = dataset(m.shape, count, rng);
      data::Dataset interleaved(m.shape, 2 * count, 10);
      std::vector<std::size_t> run(count), strided(count);
      for (std::size_t k = 0; k < count; ++k) {
        run[k] = 3 + k;
        strided[k] = 2 * k + 1;
        const auto src = ds.sample(3 + k);
        std::copy(src.begin(), src.end(),
                  interleaved.mutable_sample(2 * k + 1).begin());
        interleaved.set_label(2 * k + 1, ds.label(3 + k));
        const auto junk = noise.sample(k);
        std::copy(junk.begin(), junk.end(),
                  interleaved.mutable_sample(2 * k).begin());
        interleaved.set_label(2 * k, noise.label(k));
      }

      EXPECT_EQ(bits(m.model->loss(w, ds, run)),
                bits(m.model->loss(w, interleaved, strided)))
          << label;

      std::vector<double> g_run(w.size()), g_strided(w.size());
      const double l_run = m.model->loss_and_gradient(w, ds, run, g_run);
      const double l_strided =
          m.model->loss_and_gradient(w, interleaved, strided, g_strided);
      EXPECT_EQ(bits(l_run), bits(l_strided)) << label;
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < w.size(); ++i) {
        mismatches += bits(g_run[i]) != bits(g_strided[i]) ? 1 : 0;
      }
      EXPECT_EQ(mismatches, 0u) << label;

      std::vector<std::size_t> p_run(count), p_strided(count);
      m.model->predict(w, ds, run, p_run);
      m.model->predict(w, interleaved, strided, p_strided);
      EXPECT_EQ(p_run, p_strided) << label;
    }
  }
}

TEST(FeedForwardRows, OneChunkGradientMatchesTheRescaledSum) {
  for (const auto& m : models()) {
    Rng rng(9);
    std::vector<double> w(m.model->num_parameters());
    m.model->initialize(rng, w);
    for (const std::size_t count : {std::size_t{1}, kChunk - 1, kChunk}) {
      const std::string label = m.name + " count=" + std::to_string(count);
      const auto ds = dataset(m.shape, count, rng);
      std::vector<std::size_t> idx(count);
      std::iota(idx.begin(), idx.end(), 0);
      std::vector<double> got(w.size(), 5.0);
      (void)m.model->loss_and_gradient(w, ds, idx, got);

      // The general chunked formula, applied to a single chunk.
      const Sequential& net = m.model->net();
      const auto x = ds.rows(0, count);
      Sequential::Workspace ws;
      const auto logits = net.forward(w, count, x, ws, /*training=*/true);
      std::vector<double> d_logits(count * net.out_size());
      (void)softmax_cross_entropy_backward(count, net.out_size(), logits,
                                           ds.labels(0, count), d_logits);
      std::vector<double> chunk(w.size(), 0.0);
      net.backward(w, count, x, d_logits, chunk, ws);
      std::vector<double> want(w.size(), 0.0);
      tensor::axpy(static_cast<double>(count) / static_cast<double>(count),
                   chunk, want);
      if (m.model->l2_reg() > 0.0) tensor::axpy(m.model->l2_reg(), w, want);

      std::size_t mismatches = 0;
      std::size_t zeros = 0;
      for (std::size_t i = 0; i < w.size(); ++i) {
        mismatches += bits(got[i]) != bits(want[i]) ? 1 : 0;
        zeros += want[i] == 0.0 ? 1 : 0;
      }
      EXPECT_EQ(mismatches, 0u) << label;
      if (m.model->l2_reg() == 0.0 && m.name != "cnn") {
        // Feature 0 is zero in every row: its first-layer weight gradients
        // are exact zeros.
        EXPECT_GE(zeros, 1u) << label;
      }
    }
  }
}

}  // namespace
}  // namespace fedvr::nn
