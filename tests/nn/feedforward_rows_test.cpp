// FeedForwardModel's two row paths, its one-chunk gradient, and its record
// and replay of anchor outputs.
//
// A chunk whose indices are one ascending contiguous run is read in place
// from the dataset; any other chunk is gathered into a copy first. Both
// paths must give the same bits for loss, loss_and_gradient and predict,
// on either side of the max_chunk boundary. A batch that fits one chunk
// backpropagates straight into the zeroed gradient, which must equal the
// general formula (backward into a zeroed buffer, then axpy(count/n = 1)
// into a zeroed gradient) bit for bit, sign of zero included.
//
// A logistic model's record_gradient must return full_gradient's bits, and
// its replay_gradient loss_and_gradient's gradient at the recorded w, bit
// for bit, in each form the SVRG engines call it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "check/check.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "tensor/vecops.h"
#include "testing/dense_relu_dense.h"
#include "util/error.h"
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

std::size_t mismatches(const std::vector<double>& a,
                       const std::vector<double>& b) {
  std::size_t count = a.size() == b.size() ? 0 : 1;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    count += bits(a[i]) != bits(b[i]) ? 1 : 0;
  }
  return count;
}

// 150 rows: the record pass runs chunks of 64, 64 and 22 rows.
constexpr std::size_t kRecordedRows = 150;

TEST(FeedForwardReplay, MatchesLossAndGradientAtTheAnchor) {
  for (const std::size_t features : {60, 784}) {
    for (const double l2 : {0.0, 0.01}) {
      const std::string label = "features=" + std::to_string(features) +
                                " l2=" + std::to_string(l2);
      const auto model = make_logistic_regression(features, 10, l2);
      ASSERT_TRUE(model->replays()) << label;
      Rng rng(features + 3);
      const auto ds =
          dataset(tensor::Shape({features}), kRecordedRows, rng);
      std::vector<double> w(model->num_parameters());
      model->initialize(rng, w);

      GradientRecord record;
      std::vector<double> recorded(w.size()), full(w.size());
      const double l_recorded = model->record_gradient(w, ds, recorded, record);
      const double l_full = model->full_gradient(w, ds, full);
      EXPECT_EQ(bits(l_recorded), bits(l_full)) << label;
      EXPECT_EQ(mismatches(recorded, full), 0U) << label;
      EXPECT_EQ(record.rows, kRecordedRows) << label;
      EXPECT_EQ(record.width, 10U) << label;

      std::vector<double> want(w.size()), got(w.size(), 7.0);
      for (const std::size_t batch : {1, 8, 32, 64, 100}) {
        const std::string at = label + " B=" + std::to_string(batch);
        // Draws with replacement, one repeat forced: ProxSkip-VR's form,
        // gathered rows whose record rows are the draws themselves.
        std::vector<std::size_t> draws(batch);
        for (auto& i : draws) i = rng.below(kRecordedRows);
        if (batch > 1) draws[1] = draws[0];
        (void)model->loss_and_gradient(w, ds, draws, want);
        model->replay_gradient(w, ds, draws, record, draws, got);
        EXPECT_EQ(mismatches(got, want), 0U) << at << " gathered";

        // LocalSolver's form: the drawn rows copied once and read in place
        // as rows 0..B-1 of the copy; the draws name the record rows.
        data::Dataset copy;
        copy.assign_rows(ds, draws);
        std::vector<std::size_t> in_place(batch);
        std::iota(in_place.begin(), in_place.end(), 0);
        (void)model->loss_and_gradient(w, copy, in_place, want);
        model->replay_gradient(w, copy, in_place, record, draws, got);
        EXPECT_EQ(mismatches(got, want), 0U) << at << " copied";
      }
      // A batch that covers the shard is the whole shard in order, over
      // the record pass's three chunks.
      std::vector<std::size_t> all(kRecordedRows);
      std::iota(all.begin(), all.end(), 0);
      (void)model->loss_and_gradient(w, ds, all, want);
      model->replay_gradient(w, ds, all, record, all, got);
      EXPECT_EQ(mismatches(got, want), 0U) << label << " B>=n";
    }
  }
}

// Deeper networks keep nothing and recompute; so does a one-layer model
// whose chunk is so large that its forward rows would take another GEMM
// path than a mini-batch's (and so replay other bits).
TEST(FeedForwardReplay, OtherModelsRecordNothingAndRecompute) {
  CnnConfig cnn;
  cnn.side = 12;
  cnn.conv1_channels = 4;
  cnn.conv2_channels = 8;
  const auto big_chunk = [](std::size_t features) {
    const auto m = make_logistic_regression(features, 10);
    return std::make_shared<FeedForwardModel>(
        std::shared_ptr<const Sequential>(m, &m->net()), 0.0, 512);
  };
  EXPECT_TRUE(big_chunk(60)->replays());  // no dot path below 128 inputs
  const std::vector<Named> recomputing = {
      {"cnn", make_two_layer_cnn(cnn), tensor::Shape({1, 12, 12})},
      {"mlp", testing::dense_relu_dense(40, 24, 10), tensor::Shape({40})},
      {"logistic chunk=512", big_chunk(784), tensor::Shape({784})},
  };
  for (const auto& m : recomputing) {
    EXPECT_FALSE(m.model->replays()) << m.name;
    Rng rng(12);
    const auto ds = dataset(m.shape, 20, rng);
    std::vector<double> w(m.model->num_parameters());
    m.model->initialize(rng, w);
    GradientRecord record;
    std::vector<double> recorded(w.size()), full(w.size());
    EXPECT_EQ(bits(m.model->record_gradient(w, ds, recorded, record)),
              bits(m.model->full_gradient(w, ds, full)))
        << m.name;
    EXPECT_EQ(mismatches(recorded, full), 0U) << m.name;
    EXPECT_EQ(record.rows, 0U) << m.name;
    const std::vector<std::size_t> draws = {4, 4, 19, 0, 7};
    std::vector<double> want(w.size()), got(w.size());
    (void)m.model->loss_and_gradient(w, ds, draws, want);
    m.model->replay_gradient(w, ds, draws, record, draws, got);
    EXPECT_EQ(mismatches(got, want), 0U) << m.name;
  }
}

TEST(FeedForwardReplay, ElsewhereOrOutsideTheRecordThrows) {
  if (!check::active()) GTEST_SKIP() << "fedvr::check is off";
  CnnConfig cnn;
  cnn.side = 8;
  cnn.conv1_channels = 2;
  cnn.conv2_channels = 2;
  const std::vector<Named> models = {
      {"logistic", make_logistic_regression(60, 10), tensor::Shape({60})},
      {"cnn", make_two_layer_cnn(cnn), tensor::Shape({1, 8, 8})},
  };
  for (const auto& m : models) {
    Rng rng(5);
    const auto ds = dataset(m.shape, 20, rng);
    std::vector<double> w(m.model->num_parameters());
    m.model->initialize(rng, w);
    GradientRecord record;
    std::vector<double> grad(w.size());
    (void)m.model->record_gradient(w, ds, grad, record);
    const std::vector<std::size_t> draws = {3, 3, 11};
    EXPECT_NO_THROW(
        m.model->replay_gradient(w, ds, draws, record, draws, grad))
        << m.name;
    // The same values in another vector are other parameters.
    const std::vector<double> copy = w;
    EXPECT_THROW(m.model->replay_gradient(copy, ds, draws, record, draws, grad),
                 util::Error)
        << m.name;
    // A step moves the recorded vector itself.
    for (double& x : w) x += 0.5;
    EXPECT_THROW(m.model->replay_gradient(w, ds, draws, record, draws, grad),
                 util::Error)
        << m.name;
    for (double& x : w) x -= 0.5;
    (void)m.model->record_gradient(w, ds, grad, record);
    // Record row 20 of a 20-row record.
    const std::vector<std::size_t> outside = {3, 20, 11};
    if (m.model->replays()) {
      EXPECT_THROW(
          m.model->replay_gradient(w, ds, draws, record, outside, grad),
          util::Error);
    }
    const std::vector<std::size_t> short_rows = {3, 3};
    EXPECT_THROW(
        m.model->replay_gradient(w, ds, draws, record, short_rows, grad),
        util::Error)
        << m.name;
  }
}

}  // namespace
}  // namespace fedvr::nn
