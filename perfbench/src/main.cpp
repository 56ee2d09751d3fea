// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>]
//   perfbench --list-metrics
//
// With --trace 0 it runs complete training runs back to back (a closed loop
// on the global pool) for --seconds, sets the workload up again between
// them, and prints the end-to-end metrics as medians over those runs and
// set-ups (the first run, which warms up, is checked but not timed).
// With --trace 1 it alternates untraced runs with traced runs (through the
// forwarding decorators, with the library's observability on), then runs
// the layer probes, and prints the per-layer metrics. All timing is
// wall-clock (std::chrono::steady_clock).
//
// Output: a "context" JSON line, then, as the last line, one JSON object
// with exactly the keys correct, attempted, failed and metrics. A training
// run counts as failed when it throws, diverges, misses its goal (an
// accuracy floor, and for convex_fig2 a train-loss target), or ends with a
// final_param_hash different from the first untraced run of the same seed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "probes.h"
#include "stats.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::median;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists (run.py and
// the self-test check it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"rounds_per_s", "1/s", "higher"},
    {"time_to_target_s", "s", "lower"},
    {"rounds_to_target", "rounds", "lower"},
    {"final_test_accuracy", "fraction", "higher"},
    {"final_train_loss", "nats", "lower"},
    {"uplink_bytes_per_round", "B", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
};

constexpr MetricDef kPerLayer[] = {
    {"tensor.gemm_conv1_gflops", "GFLOP/s", "higher"},
    {"tensor.gemm_conv2_gflops", "GFLOP/s", "higher"},
    {"tensor.gemm_conv2_gflops_pool", "GFLOP/s", "higher"},
    {"tensor.arena_heap_events_per_round", "count", "lower"},
    {"nn.grad_calls", "count", "lower"},
    {"nn.grad_samples", "count", "lower"},
    {"nn.grad_busy_s", "s", "lower"},
    {"nn.grad_us_per_sample", "us", "lower"},
    {"nn.eval_samples", "count", "lower"},
    {"nn.eval_busy_s", "s", "lower"},
    {"nn.cnn.conv1_ms", "ms", "lower"},
    {"nn.cnn.act_pool_ms", "ms", "lower"},
    {"nn.cnn.conv2_ms", "ms", "lower"},
    {"nn.cnn.dense_ms", "ms", "lower"},
    {"opt.solve_ms", "ms", "lower"},
    {"opt.self_share", "fraction", "lower"},
    {"data.setup_s", "s", "lower"},
    {"data.train_calls", "count", "lower"},
    {"data.materializations", "count", "lower"},
    {"data.train_busy_s", "s", "lower"},
    {"theory.smoothness_s", "s", "lower"},
    {"comm.compress_calls", "count", "lower"},
    {"comm.compress_busy_s", "s", "lower"},
    {"comm.uplink_us", "us", "lower"},
    {"comm.uplink_bytes_per_update", "B", "lower"},
    {"fl.phase.broadcast_s", "s", "lower"},
    {"fl.phase.local_solve_s", "s", "lower"},
    {"fl.phase.aggregate_s", "s", "lower"},
    {"fl.phase.eval_s", "s", "lower"},
    {"fl.aggregate_calls", "count", "lower"},
    {"fl.aggregate_busy_s", "s", "lower"},
    {"fl.solve_busy_share", "fraction", "higher"},
    {"fl.heap_allocs_per_round", "count", "lower"},
    {"core.comm_iterations", "count", "lower"},
    {"core.proxskip_iterations_per_s", "1/s", "higher"},
    {"bench.trace_overhead", "fraction", "lower"},
};

// Between training runs the workload is set up again until set-up has
// taken kSetupShare of the time so far, and at least kMinSetups times.
constexpr double kSetupShare = 0.1;
constexpr std::size_t kMinSetups = 3;
// The global pool runs at most this many threads. On a shared 4-vCPU host,
// 4-thread rounds wait on whichever vCPU the host preempts last: over ten
// seeds their rates spread 0.25-0.31 of the median in loaded phases, where
// a serial engine spread 0.07.
constexpr unsigned kPoolThreads = 2;
constexpr std::size_t kMinRuns = 3;   // untraced runs per --trace 0 run
constexpr std::size_t kMinPairs = 2;  // untraced+traced pairs, --trace 1
constexpr std::size_t kProxSkipRuns = 3;  // untraced ProxSkip-VR probe runs

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  bool list_metrics = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\n"
               "       perfbench --list-metrics\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--commit") {
        a.commit = value;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (!a.list_metrics) {
    if (a.workload.empty()) usage("--workload is required");
    if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
    if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  }
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// VmHWM (peak resident set) of this process, in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void list_metrics() {
  const auto dump = [](const char* key, const auto& defs) {
    std::printf("\"%s\": [", key);
    bool first = true;
    for (const MetricDef& d : defs) {
      std::printf("%s{\"name\": %s, \"unit\": %s, \"better\": %s}",
                  first ? "" : ", ", json_string(d.name).c_str(),
                  json_string(d.unit).c_str(), json_string(d.better).c_str());
      first = false;
    }
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  const auto& names = perfbench::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", json_string(names[i]).c_str());
  }
  std::printf("], ");
  dump("end_to_end", kEndToEnd);
  std::printf(", ");
  dump("per_layer", kPerLayer);
  std::printf("}\n");
}

/// Bookkeeping shared by every training run of one invocation.
class Gate {
 public:
  /// Runs one training run and records whether it failed.
  std::optional<perfbench::RunResult> attempt(perfbench::Workload& wl,
                                              perfbench::LayerStats* stats,
                                              const char* label) {
    ++attempted_;
    try {
      perfbench::RunResult r = wl.run(stats);
      std::string why;
      if (r.diverged) why = "diverged";
      if (!r.met_target) why = "missed its goal";
      const auto [ref, first] = reference_.try_emplace(&wl, r.final_param_hash);
      if (!first && r.final_param_hash != ref->second) {
        why = "final_param_hash differs from the first untraced run";
      }
      if (!why.empty()) {
        ++failed_;
        std::fprintf(stderr, "perfbench: %s run failed: %s\n", label,
                     why.c_str());
      }
      return r;
    } catch (const std::exception& e) {
      ++failed_;
      std::fprintf(stderr, "perfbench: %s run threw: %s\n", label, e.what());
      return std::nullopt;
    }
  }

  void fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
  // Per workload: the final_param_hash of its first run.
  std::map<const perfbench::Workload*, std::uint64_t> reference_;
};

/// Times set-ups of the workload from nothing, on fresh instances, spread
/// between the training runs of the instance that trains. So the set-up
/// median covers the same minutes as the runs' (on a shared host, speed
/// moves with the host's load over tens of seconds: set-ups timed within
/// one second spread 0.2-0.3 of the median over ten seeds), and the trained
/// instance stays warm.
class SetupTimer {
 public:
  SetupTimer(std::string workload, std::uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {}

  /// Counts the trained instance's own set-up.
  void add(const perfbench::SetupTimes& t) {
    times_.push_back(t);
    spent_ += t.total_s;
  }

  /// Sets fresh instances up until set-up has taken kSetupShare of the
  /// time since this timer started.
  void catch_up() {
    while (spent_ < kSetupShare * clock_.seconds()) once();
  }

  /// Set-up times, at least kMinSetups of them.
  const std::vector<perfbench::SetupTimes>& times() {
    while (times_.size() < kMinSetups) once();
    return times_;
  }

 private:
  void once() { add(perfbench::make_workload(workload_)->setup(seed_)); }

  std::string workload_;
  std::uint64_t seed_;
  const fedvr::util::Stopwatch clock_;
  std::vector<perfbench::SetupTimes> times_;
  double spent_ = 0.0;
};

/// Runs untraced training runs until `seconds` have passed and at least
/// `min_runs` ran, timing set-ups between them.
std::vector<perfbench::RunResult> untraced_runs(perfbench::Workload& wl,
                                                Gate& gate, SetupTimer& setups,
                                                double seconds,
                                                std::size_t min_runs) {
  std::vector<perfbench::RunResult> runs;
  const fedvr::util::Stopwatch sw;
  std::size_t tries = 0;
  while (tries < min_runs || sw.seconds() < seconds) {
    ++tries;
    if (auto r = gate.attempt(wl, nullptr, "untraced")) runs.push_back(*r);
    if (runs.empty()) break;  // the reference run threw: nothing to compare
    setups.catch_up();
  }
  return runs;
}

template <typename T, typename F>
std::vector<double> collect(const std::vector<T>& items, F&& f) {
  std::vector<double> v;
  for (const T& item : items) v.push_back(f(item));
  return v;
}

using Metrics = std::map<std::string, double>;

Metrics end_to_end(perfbench::Workload& wl, Gate& gate, SetupTimer& setups,
                   double seconds) {
  const auto runs = untraced_runs(wl, gate, setups, seconds, kMinRuns + 1);
  Metrics m;
  m["setup_s"] =
      median(collect(setups.times(), [](const auto& s) { return s.total_s; }));
  if (runs.empty()) return m;
  const perfbench::RunResult& ref = runs.front();
  // The first run warms caches, workspaces and the allocator and is the
  // correctness reference; the runs after it are timed.
  const std::vector<perfbench::RunResult> timed(
      runs.begin() + (runs.size() > 1 ? 1 : 0), runs.end());
  const std::vector<double> rates = collect(timed, [](const auto& r) {
    return static_cast<double>(r.rounds) / r.wall_s;
  });
  std::printf("runs %zu (the first untimed), rounds per run %zu, rates (1/s):",
              runs.size(), ref.rounds);
  for (const double r : rates) std::printf(" %.1f", r);
  std::printf("\n");
  m["rounds_per_s"] = median(rates);
  m["time_to_target_s"] =
      median(collect(timed, [](const auto& r) { return r.time_to_target_s; }));
  m["rounds_to_target"] = static_cast<double>(ref.target_round);
  m["final_test_accuracy"] = ref.final_test_accuracy;
  m["final_train_loss"] = ref.final_train_loss;
  m["uplink_bytes_per_round"] =
      ref.rounds ? static_cast<double>(ref.uplink_bytes) /
                       static_cast<double>(ref.rounds)
                 : 0.0;
  m["peak_rss_mb"] = peak_rss_mib();
  return m;
}

/// core/proxskip.cpp, which no workload runs: whole ProxSkip-VR runs from
/// `seed`, checked by the gate like a workload's. The rate is the median of
/// kProxSkipRuns untraced runs; the communication count comes from a traced
/// run's compressor calls.
void probe_proxskip(std::uint64_t seed, Gate& gate, Metrics& m) {
  const auto px = perfbench::make_proxskip();
  (void)px->setup(seed);
  std::vector<double> rates;
  for (std::size_t i = 0; i < kProxSkipRuns; ++i) {
    if (const auto r = gate.attempt(*px, nullptr, "proxskip untraced")) {
      rates.push_back(static_cast<double>(r->rounds) / r->wall_s);
    }
  }
  m["core.proxskip_iterations_per_s"] = median(rates);
  perfbench::LayerStats stats;
  if (gate.attempt(*px, &stats, "proxskip traced")) {
    // No faults here: every communicating iteration compresses one update
    // per device, so the compressor call count divides exactly.
    m["core.comm_iterations"] = static_cast<double>(
        stats.compress.calls.load() / px->probe_inputs().num_devices);
  }
}

Metrics per_layer(perfbench::Workload& wl, Gate& gate, SetupTimer& setups,
                  double seconds, std::uint64_t seed) {
  Metrics m;

  // Untraced and traced runs alternate, so drift in the machine's load hits
  // both sides of bench.trace_overhead alike. The gate checks every traced
  // run's final_param_hash against the first untraced run.
  std::vector<perfbench::RunResult> untraced, traced;
  std::unique_ptr<perfbench::LayerStats> traced_stats;
  const fedvr::util::Stopwatch sw;
  while (traced.size() < kMinPairs || sw.seconds() < seconds) {
    const auto u = gate.attempt(wl, nullptr, "untraced");
    traced_stats = std::make_unique<perfbench::LayerStats>();  // fresh counters
    const auto t = gate.attempt(wl, traced_stats.get(), "traced");
    if (!u || !t) break;  // already counted as failed
    untraced.push_back(*u);
    traced.push_back(*t);
    setups.catch_up();
  }
  m["data.setup_s"] =
      median(collect(setups.times(), [](const auto& s) { return s.data_s; }));
  m["theory.smoothness_s"] = median(
      collect(setups.times(), [](const auto& s) { return s.smoothness_s; }));
  if (traced.empty()) return m;
  const perfbench::RunResult& ref = untraced.front();
  const double rounds = static_cast<double>(std::max<std::size_t>(ref.rounds, 1));
  m["fl.heap_allocs_per_round"] = static_cast<double>(ref.heap_allocs) / rounds;
  m["tensor.arena_heap_events_per_round"] =
      static_cast<double>(ref.arena_events) / rounds;
  const perfbench::LayerStats& stats = *traced_stats;
  const perfbench::RunResult& tr = traced.back();
  const auto busy = [](const perfbench::CallStats& c) {
    return c.busy_seconds();
  };
  const auto count = [](const std::atomic<std::uint64_t>& c) {
    return static_cast<double>(c.load());
  };
  m["bench.trace_overhead"] =
      median(collect(traced, [](const auto& r) { return r.wall_s; })) /
          median(collect(untraced, [](const auto& r) { return r.wall_s; })) -
      1.0;
  m["nn.grad_calls"] = count(stats.grad.calls);
  m["nn.grad_samples"] = count(stats.grad.items);
  m["nn.grad_busy_s"] = busy(stats.grad);
  m["nn.grad_us_per_sample"] =
      stats.grad.items ? busy(stats.grad) / count(stats.grad.items) * 1e6 : 0.0;
  m["nn.eval_samples"] = count(stats.eval.items);
  m["nn.eval_busy_s"] = busy(stats.eval);
  m["data.train_calls"] = count(stats.train.calls);
  m["data.train_busy_s"] = busy(stats.train);
  m["data.materializations"] = static_cast<double>(wl.materializations());
  m["comm.compress_calls"] = count(stats.compress.calls);
  m["comm.compress_busy_s"] = busy(stats.compress);
  m["fl.aggregate_calls"] = count(stats.aggregate.calls);
  m["fl.aggregate_busy_s"] = busy(stats.aggregate);
  const fedvr::fl::PhaseTimings phases = tr.phases.value_or(
      fedvr::fl::PhaseTimings{});
  const double trounds = static_cast<double>(std::max<std::size_t>(tr.rounds, 1));
  m["fl.phase.broadcast_s"] = phases.broadcast / trounds;
  m["fl.phase.local_solve_s"] = phases.local_solve / trounds;
  m["fl.phase.aggregate_s"] = phases.aggregate / trounds;
  m["fl.phase.eval_s"] = phases.eval / trounds;
  const double pool = static_cast<double>(
      fedvr::util::ThreadPool::global().size());
  // Shards materialized for an evaluation are not solve work.
  m["fl.solve_busy_share"] =
      phases.local_solve > 0.0
          ? (busy(stats.grad) + stats.solve_train_seconds()) /
                (phases.local_solve * pool)
          : 0.0;

  // Layer probes at the workload's own shapes (the CNN ones at cnn_fig3's).
  const perfbench::CnnShape cnn;
  const perfbench::GemmProbe gemm = perfbench::probe_gemm(cnn);
  m["tensor.gemm_conv1_gflops"] = gemm.conv1_gflops;
  m["tensor.gemm_conv2_gflops"] = gemm.conv2_gflops;
  m["tensor.gemm_conv2_gflops_pool"] = gemm.conv2_gflops_pool;
  const perfbench::CnnLayerProbe layers = perfbench::probe_cnn_layers(cnn, 11);
  m["nn.cnn.conv1_ms"] = layers.conv1_ms;
  m["nn.cnn.act_pool_ms"] = layers.act_pool_ms;
  m["nn.cnn.conv2_ms"] = layers.conv2_ms;
  m["nn.cnn.dense_ms"] = layers.dense_ms;
  const perfbench::ProbeInputs in = wl.probe_inputs();
  const perfbench::SolveProbe solve = perfbench::probe_solve(in, 7);
  m["opt.solve_ms"] = solve.solve_ms;
  m["opt.self_share"] = solve.self_share;
  const perfbench::UplinkProbe up = perfbench::probe_uplink(in, 51);
  m["comm.uplink_us"] = up.uplink_us;
  m["comm.uplink_bytes_per_update"] = static_cast<double>(up.bytes_per_update);
  probe_proxskip(seed, gate, m);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.list_metrics) {
    list_metrics();
    return 0;
  }
  auto wl = perfbench::make_workload(args.workload);
  if (!wl) usage("unknown workload '" + args.workload + "'");
  fedvr::util::ThreadPool::reset_global(
      std::min(kPoolThreads, std::max(1U, std::thread::hardware_concurrency())));

  // perfbench/CMakeLists.txt never defines FEDVR_CHECKS_DISABLED, so the
  // check macros are always compiled in.
  std::printf(
      "context {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"pool_threads\": %zu, \"nproc\": %u, \"build_type\": %s, "
      "\"fedvr_checks\": \"ON\", \"compiler\": %s, \"commit\": %s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace,
      fedvr::util::ThreadPool::global().size(),
      std::thread::hardware_concurrency(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(__VERSION__).c_str(), json_string(args.commit).c_str());
  std::fflush(stdout);

  Gate gate;
  Metrics metrics;
  try {
    SetupTimer setups(args.workload, args.seed);
    setups.add(wl->setup(args.seed));
    metrics = args.trace == 0
                  ? end_to_end(*wl, gate, setups, args.seconds)
                  : per_layer(*wl, gate, setups, args.seconds, args.seed);
  } catch (const std::exception& e) {
    gate.fail(std::string("set-up threw: ") + e.what());
  }

  // Every listed metric must be present and finite.
  std::ostringstream out;
  out << "{";
  bool first = true;
  const auto emit = [&](const auto& defs) {
    for (const MetricDef& d : defs) {
      const auto it = metrics.find(d.name);
      double v = 0.0;
      if (it == metrics.end() || !std::isfinite(it->second)) {
        gate.fail(std::string("metric ") + d.name + " missing or not finite");
      } else {
        v = it->second;
      }
      out << (first ? "" : ", ") << json_string(d.name)
          << ": {\"value\": " << json_number(v)
          << ", \"unit\": " << json_string(d.unit) << "}";
      first = false;
    }
  };
  if (args.trace == 0) {
    emit(kEndToEnd);
  } else {
    emit(kPerLayer);
  }
  out << "}";
  const std::size_t attempted = std::max<std::size_t>(gate.attempted(), 1);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              gate.correct() ? "true" : "false", attempted,
              gate.failed() + (gate.attempted() == 0 ? 1 : 0),
              out.str().c_str());
  return 0;
}
