#include "probes.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <vector>

#include "comm/channel.h"
#include "data/procedural_images.h"
#include "decorators.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/models.h"
#include "nn/pool.h"
#include "nn/sequential.h"
#include "opt/workspace.h"
#include "tensor/kernels.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

#include "stats.h"

namespace perfbench {
namespace {

using namespace fedvr;

/// Runs `fn` inside one pool worker, where nested kernels run serially —
/// the mode every device solve runs in.
template <typename F>
void on_one_thread(F&& fn) {
  util::ThreadPool::global().submit(std::forward<F>(fn)).get();
}

/// The first `count` layers of the paper CNN (make_two_layer_cnn's order:
/// conv1, relu, pool, conv2, relu, pool, dense).
std::vector<std::unique_ptr<nn::Layer>> cnn_layers(const CnnShape& s,
                                                   std::size_t count) {
  const std::size_t pad = s.kernel / 2;
  const std::size_t half = s.side / 2;
  const std::size_t quarter = half / 2;
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(std::make_unique<nn::Conv2dLayer>(
      tensor::ConvGeometry{.channels = 1,
                           .height = s.side,
                           .width = s.side,
                           .kernel_h = s.kernel,
                           .kernel_w = s.kernel,
                           .pad = pad,
                           .stride = 1},
      s.conv1));
  layers.push_back(std::make_unique<nn::ReluLayer>(s.conv1 * s.side * s.side));
  layers.push_back(
      std::make_unique<nn::MaxPool2dLayer>(s.conv1, s.side, s.side, 2));
  layers.push_back(std::make_unique<nn::Conv2dLayer>(
      tensor::ConvGeometry{.channels = s.conv1,
                           .height = half,
                           .width = half,
                           .kernel_h = s.kernel,
                           .kernel_w = s.kernel,
                           .pad = pad,
                           .stride = 1},
      s.conv2));
  layers.push_back(std::make_unique<nn::ReluLayer>(s.conv2 * half * half));
  layers.push_back(std::make_unique<nn::MaxPool2dLayer>(s.conv2, half, half, 2));
  layers.push_back(
      std::make_unique<nn::DenseLayer>(s.conv2 * quarter * quarter, 10));
  layers.resize(count);
  return layers;
}

/// Median seconds per call of `fn`, timing `inner` calls per sample.
template <typename F>
double median_seconds(F&& fn, std::size_t samples, std::size_t inner) {
  std::vector<double> t;
  t.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const util::Stopwatch sw;
    for (std::size_t j = 0; j < inner; ++j) fn();
    t.push_back(sw.seconds() / static_cast<double>(inner));
  }
  return median(t);
}

}  // namespace

GemmProbe probe_gemm(const CnnShape& shape) {
  struct Shape3 {
    std::size_t m, n, k;
  };
  const std::size_t half = shape.side / 2;
  const Shape3 c1{shape.conv1, shape.side * shape.side,
                  shape.kernel * shape.kernel};
  const Shape3 c2{shape.conv2, half * half,
                  shape.conv1 * shape.kernel * shape.kernel};
  util::Rng rng(7);
  const auto gflops = [&](const Shape3& g, bool pool) {
    std::vector<double> a(g.m * g.k), b(g.k * g.n), c(g.m * g.n);
    for (double& v : a) v = rng.uniform(-1.0, 1.0);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    const auto call = [&] {
      tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kNo, g.m, g.n,
                          g.k, 1.0, a, b, 0.0, c);
    };
    double sec = 0.0;
    const auto measure = [&] {
      call();  // warm the packing scratch
      sec = median_seconds(call, 15, 8);
    };
    if (pool) {
      measure();
    } else {
      on_one_thread(measure);
    }
    return 2.0 * static_cast<double>(g.m * g.n * g.k) / sec / 1e9;
  };
  GemmProbe p;
  p.conv1_gflops = gflops(c1, false);
  p.conv2_gflops = gflops(c2, false);
  p.conv2_gflops_pool = gflops(c2, true);
  return p;
}

CnnLayerProbe probe_cnn_layers(const CnnShape& shape, std::size_t reps) {
  // Prefix lengths: conv1 | +relu,pool | +conv2 | +relu,pool | +dense.
  constexpr std::array<std::size_t, 5> kPrefix = {1, 3, 4, 6, 7};
  std::vector<std::unique_ptr<nn::Sequential>> nets;
  for (std::size_t len : kPrefix) {
    nets.push_back(std::make_unique<nn::Sequential>(cnn_layers(shape, len)));
  }
  const nn::Sequential& full = *nets.back();
  util::Rng rng(11);
  std::vector<double> w(full.param_count());
  full.init_params(rng, w);

  data::ProceduralImageConfig pc;
  pc.side = shape.side;
  const data::Dataset batch = data::make_procedural_pool(pc, shape.batch, 3);
  std::vector<double> x;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto s = batch.sample(i);
    x.insert(x.end(), s.begin(), s.end());
  }

  nn::CnnConfig cfg;
  cfg.side = shape.side;
  cfg.conv1_channels = shape.conv1;
  cfg.conv2_channels = shape.conv2;
  cfg.kernel = shape.kernel;
  const auto model = nn::make_two_layer_cnn(cfg);
  const std::vector<std::size_t> idx = nn::all_indices(batch.size());

  std::vector<std::vector<double>> times(kPrefix.size());
  std::vector<double> model_times;
  on_one_thread([&] {
    std::vector<nn::Sequential::Workspace> ws(nets.size());
    std::vector<std::vector<double>> d_out(nets.size()), dw(nets.size());
    for (std::size_t p = 0; p < nets.size(); ++p) {
      d_out[p].assign(shape.batch * nets[p]->out_size(), 1e-3);
      dw[p].assign(nets[p]->param_count(), 0.0);
    }
    std::vector<double> grad(w.size());
    // Rep 0 warms every workspace and arena; it is not recorded.
    for (std::size_t rep = 0; rep <= reps; ++rep) {
      for (std::size_t p = 0; p < nets.size(); ++p) {
        const auto wp = std::span<const double>(w).first(nets[p]->param_count());
        std::fill(dw[p].begin(), dw[p].end(), 0.0);
        const util::Stopwatch sw;
        (void)nets[p]->forward(wp, shape.batch, x, ws[p], true);
        nets[p]->backward(wp, shape.batch, x, d_out[p], dw[p], ws[p]);
        if (rep > 0) times[p].push_back(sw.milliseconds());
      }
      const util::Stopwatch sw;
      (void)model->loss_and_gradient(w, batch, idx, grad);
      if (rep > 0) model_times.push_back(sw.milliseconds());
    }
  });

  // Differences are taken within each repetition, whose prefixes ran back to
  // back, so load that drifts between repetitions cancels; then medians.
  std::vector<double> conv1, act_pool, conv2, dense;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t = [&](std::size_t p) { return times[p][r]; };
    conv1.push_back(t(0));
    act_pool.push_back((t(1) - t(0)) + (t(3) - t(2)));
    conv2.push_back(t(2) - t(1));
    dense.push_back(t(4) - t(3));
  }
  CnnLayerProbe out;
  out.conv1_ms = median(conv1);
  out.act_pool_ms = median(act_pool);
  out.conv2_ms = median(conv2);
  out.dense_ms = median(dense);
  out.whole_ms = median(times[4]);
  out.spread_ms = quartile(times[4], 3) - quartile(times[4], 1);
  out.model_grad_ms = median(model_times);
  return out;
}

SolveProbe probe_solve(const ProbeInputs& in, std::size_t reps) {
  LayerStats stats;
  const auto model = std::make_shared<CountingModel>(in.model, stats);
  const opt::LocalSolver solver(model, in.solver);
  util::Rng init(5);
  const std::vector<double> anchor = in.model->initial_parameters(init);
  std::vector<double> total, inside;
  on_one_thread([&] {
    opt::SolverWorkspace ws;
    std::vector<double> w_out;
    for (std::size_t rep = 0; rep <= reps; ++rep) {
      util::Rng rng(rep);
      const std::uint64_t busy_before = stats.grad.busy_ns.load() +
                                        stats.eval.busy_ns.load();
      const util::Stopwatch sw;
      (void)solver.solve(*in.shard, anchor, rng, ws, w_out);
      const double sec = sw.seconds();
      const std::uint64_t busy =
          stats.grad.busy_ns.load() + stats.eval.busy_ns.load() - busy_before;
      if (rep == 0) continue;  // warms the workspace
      total.push_back(sec);
      inside.push_back(static_cast<double>(busy) / 1e9);
    }
  });
  SolveProbe p;
  p.solve_ms = median(total) * 1e3;
  double sum_total = 0.0, sum_inside = 0.0;
  for (std::size_t i = 0; i < total.size(); ++i) {
    sum_total += total[i];
    sum_inside += inside[i];
  }
  p.self_share = sum_total > 0.0 ? 1.0 - sum_inside / sum_total : 0.0;
  return p;
}

UplinkProbe probe_uplink(const ProbeInputs& in, std::size_t reps) {
  const std::size_t dim = in.model->num_parameters();
  comm::Channel channel(in.channel, in.num_devices, dim);
  const std::array<std::size_t, 1> device = {0};
  channel.prepare(device);
  util::Rng rng(9);
  std::vector<double> delta(dim), buf(dim);
  for (double& v : delta) v = rng.normal(0.0, 0.01);
  std::vector<double> t;
  UplinkProbe p;
  for (std::size_t rep = 0; rep <= reps; ++rep) {
    buf = delta;
    const util::Stopwatch sw;
    p.bytes_per_update = channel.uplink(0, buf, rng);
    if (rep > 0) t.push_back(sw.seconds() * 1e6);
  }
  p.uplink_us = median(t);
  return p;
}

}  // namespace perfbench
