// main() of the google-benchmark binaries (micro_kernels, micro_comm,
// micro_rounds): BENCHMARK_MAIN() plus this project's build in the JSON
// "context" block. libbenchmark's own library_build_type there describes
// the installed libbenchmark, not this project, so the binaries add
//   fedvr_build_type    CMAKE_BUILD_TYPE of this build;
//   fedvr_pool_threads  the global thread pool's size at start.
#pragma once

#include <benchmark/benchmark.h>

#include <string>

#include "util/thread_pool.h"

#ifndef FEDVR_BUILD_TYPE
#define FEDVR_BUILD_TYPE "unknown"
#endif

namespace fedvr::bench {

inline int run_micro_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("fedvr_build_type", FEDVR_BUILD_TYPE);
  benchmark::AddCustomContext(
      "fedvr_pool_threads",
      std::to_string(util::ThreadPool::global().size()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace fedvr::bench
