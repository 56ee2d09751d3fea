#include "obs/registry.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "util/error.h"
#include "util/thread_pool.h"

namespace fedvr::obs {
namespace {

using fedvr::util::Error;
using fedvr::util::ThreadPool;

// Restores the global enable flag so suites don't interfere.
class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = set_enabled(false); }
  void TearDown() override { set_enabled(prev_); }
  bool prev_ = false;
};

TEST_F(RegistryTest, CounterAddsAndResets) {
  Registry reg;
  Counter& c = reg.counter("c");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(RegistryTest, CounterHandleIsStable) {
  Registry reg;
  Counter& a = reg.counter("same");
  Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  a.add(1);
  EXPECT_EQ(b.value(), 1u);
}

TEST_F(RegistryTest, ShardedCounterIsExactUnderThreadPool) {
  Registry reg;
  Counter& c = reg.counter("parallel");
  ThreadPool pool(4);
  constexpr std::size_t kIters = 20000;
  pool.parallel_for(0, kIters, [&](std::size_t) { c.add(1); });
  // Writers have quiesced (parallel_for blocked until done): the sum over
  // shards must be exact, not approximate.
  EXPECT_EQ(c.value(), kIters);
}

TEST_F(RegistryTest, GaugeSetAddUnderThreadPool) {
  Registry reg;
  Gauge& g = reg.gauge("g");
  g.set(10.0);
  ThreadPool pool(4);
  pool.parallel_for(0, 1000, [&](std::size_t) { g.add(1.0); });
  pool.parallel_for(0, 500, [&](std::size_t) { g.add(-2.0); });
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST_F(RegistryTest, NameCannotChangeMetricType) {
  Registry reg;
  (void)reg.counter("metric");
  EXPECT_THROW((void)reg.gauge("metric"), Error);
}

TEST_F(RegistryTest, GaugeNameCannotBecomeCounter) {
  Registry reg;
  reg.gauge("metric").set(4.0);
  EXPECT_THROW((void)reg.counter("metric"), Error);
  // The refused registration leaves the registry as it was.
  const auto s = reg.snapshot();
  EXPECT_TRUE(s.counters.empty());
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].name, "metric");
  EXPECT_DOUBLE_EQ(s.gauges[0].value, 4.0);
}

TEST_F(RegistryTest, SnapshotListsMetricsInNameOrder) {
  Registry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.counter("mid").add(3);
  reg.gauge("z.depth").set(0.5);
  reg.gauge("a.depth").set(0.25);
  const auto s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].name, "alpha");
  EXPECT_EQ(s.counters[1].name, "mid");
  EXPECT_EQ(s.counters[2].name, "zeta");
  EXPECT_EQ(s.counters[0].value, 2u);
  ASSERT_EQ(s.gauges.size(), 2u);
  EXPECT_EQ(s.gauges[0].name, "a.depth");
  EXPECT_EQ(s.gauges[1].name, "z.depth");
  // Counters come first in the JSONL, each group in name order.
  std::ostringstream os;
  s.write_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"type\":\"counter\",\"name\":\"alpha\",\"value\":2}\n"
            "{\"type\":\"counter\",\"name\":\"mid\",\"value\":3}\n"
            "{\"type\":\"counter\",\"name\":\"zeta\",\"value\":1}\n"
            "{\"type\":\"gauge\",\"name\":\"a.depth\",\"value\":0.25}\n"
            "{\"type\":\"gauge\",\"name\":\"z.depth\",\"value\":0.5}\n");
}

TEST_F(RegistryTest, JsonlValuesRoundTripExactly) {
  Registry reg;
  reg.counter("big").add(std::numeric_limits<std::uint64_t>::max());
  const std::vector<double> values = {0.1, 1.0 / 3.0, -2.5e-310, 1e300, 2.0};
  for (std::size_t i = 0; i < values.size(); ++i) {
    reg.gauge("g" + std::to_string(i)).set(values[i]);
  }
  std::ostringstream os;
  reg.snapshot().write_jsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "{\"type\":\"counter\",\"name\":\"big\","
            "\"value\":18446744073709551615}");
  const std::string key = "\"value\":";
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << "gauge " << i;
    const std::size_t at = line.find(key);
    ASSERT_NE(at, std::string::npos) << line;
    const std::string text =
        line.substr(at + key.size(), line.size() - at - key.size() - 1);
    double parsed = 0.0;
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), parsed);
    ASSERT_EQ(res.ec, std::errc()) << text;
    EXPECT_EQ(res.ptr, text.data() + text.size()) << text;
    EXPECT_EQ(parsed, values[i]) << text;
  }
  // Shortest round-trip form: no padding digits, no trailing ".0".
  EXPECT_NE(os.str().find("\"name\":\"g0\",\"value\":0.1}"), std::string::npos);
  EXPECT_NE(os.str().find("\"name\":\"g4\",\"value\":2}"), std::string::npos);
}

TEST_F(RegistryTest, SnapshotJsonlGoldenOutput) {
  Registry reg;
  reg.counter("requests").add(3);
  reg.gauge("depth").set(1.5);
  std::ostringstream os;
  reg.snapshot().write_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"type\":\"counter\",\"name\":\"requests\",\"value\":3}\n"
            "{\"type\":\"gauge\",\"name\":\"depth\",\"value\":1.5}\n");
}

TEST_F(RegistryTest, ResetValuesKeepsRegistrations) {
  Registry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(2.0);
  reg.reset_values();
  const auto s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].value, 0u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].value, 0.0);
}

TEST_F(RegistryTest, ObsCountMacroRespectsEnableFlag) {
  Counter& c = Registry::global().counter("test.macro_gate");
  const std::uint64_t before = c.value();
  FEDVR_OBS_COUNT("test.macro_gate", 7);  // disabled: no-op
  EXPECT_EQ(c.value(), before);
  set_enabled(true);
  FEDVR_OBS_COUNT("test.macro_gate", 7);
  set_enabled(false);
  EXPECT_EQ(c.value(), before + 7);
}

TEST_F(RegistryTest, ThreadPoolPublishesQueueMetricsWhenEnabled) {
  auto& reg = Registry::global();
  const std::uint64_t submitted_before =
      reg.counter("pool.tasks_submitted").value();
  const std::uint64_t executed_before =
      reg.counter("pool.tasks_executed").value();
  set_enabled(true);
  {
    ThreadPool pool(3);
    pool.parallel_for(0, 64, [](std::size_t) {}, /*grain=*/1);
    pool.submit([] {}).get();
  }  // pool drained and joined
  set_enabled(false);
  const std::uint64_t submitted =
      reg.counter("pool.tasks_submitted").value() - submitted_before;
  const std::uint64_t executed =
      reg.counter("pool.tasks_executed").value() - executed_before;
  EXPECT_GE(submitted, 2u);  // at least one parallel_for chunk + the submit
  EXPECT_EQ(submitted, executed);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.queue_depth").value(), 0.0);
}

}  // namespace
}  // namespace fedvr::obs
