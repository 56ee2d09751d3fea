// Micro-benchmarks for the comm subsystem: wire-format encode/decode
// throughput per dtype (bytes/s of input vector processed), sparse framing,
// and the full Channel::uplink pipeline (EF + TopK + encode + decode).
// Snapshot with tools/bench_json.py --binary build/bench/micro_comm
// --out BENCH_comm.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/channel.h"
#include "comm/message.h"
#include "common/micro_main.h"
#include "util/rng.h"

namespace {

using namespace fedvr;

constexpr std::size_t kDim = 1 << 16;  // 64k coordinates (512 KiB of f64)

std::vector<double> random_vector(std::size_t n) {
  util::Rng rng(7);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

comm::DType dtype_arg(std::int64_t r) {
  return static_cast<comm::DType>(r);
}

// Input throughput: bytes of float64 vector serialized per second. Wire
// output is smaller for f32/q8; BENCH_comm.json captures the rate at which
// updates can be pushed into the encoder.
void BM_EncodeDense(benchmark::State& state) {
  const auto v = random_vector(kDim);
  const comm::DType dtype = dtype_arg(state.range(0));
  for (auto _ : state) {
    const comm::Message msg = comm::Message::encode_dense(v, dtype);
    benchmark::DoNotOptimize(msg.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDim * sizeof(double)));
  state.SetLabel(comm::dtype_name(dtype));
}
BENCHMARK(BM_EncodeDense)->Arg(0)->Arg(1)->Arg(2);

void BM_DecodeDense(benchmark::State& state) {
  const auto v = random_vector(kDim);
  const comm::DType dtype = dtype_arg(state.range(0));
  const comm::Message msg = comm::Message::encode_dense(v, dtype);
  std::vector<double> out(kDim);
  for (auto _ : state) {
    msg.decode(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDim * sizeof(double)));
  state.SetLabel(comm::dtype_name(dtype));
}
BENCHMARK(BM_DecodeDense)->Arg(0)->Arg(1)->Arg(2);

// Sparse framing overhead: a 10%-dense TopK-shaped delta round trip.
void BM_EncodeDecodeSparse(benchmark::State& state) {
  auto v = random_vector(kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    if (i % 10 != 0) v[i] = 0.0;
  }
  std::vector<double> out(kDim);
  for (auto _ : state) {
    const comm::Message msg =
        comm::Message::encode_nonzeros(v, comm::DType::kFloat64);
    msg.decode(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDim * sizeof(double)));
}
BENCHMARK(BM_EncodeDecodeSparse);

// The whole uplink seam per update: EF compensate + TopK(10%) + serialize +
// decode + EF absorb — what one device pays per communication round.
void BM_ChannelUplink(benchmark::State& state) {
  comm::ChannelOptions opts;
  opts.compressor = std::make_shared<comm::TopKCompressor>(0.1);
  opts.error_feedback = true;
  opts.uplink_dtype = comm::DType::kInt8Block;
  comm::Channel channel(opts, 1, kDim);
  const auto base = random_vector(kDim);
  std::vector<double> delta(kDim);
  util::Rng rng(3);
  for (auto _ : state) {
    delta = base;
    const std::size_t bytes = channel.uplink(0, delta, rng);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDim * sizeof(double)));
}
BENCHMARK(BM_ChannelUplink);

}  // namespace

int main(int argc, char** argv) {
  return fedvr::bench::run_micro_benchmarks(argc, argv);
}
