// Exporter golden-format tests (JSON + Prometheus), validator round-trips,
// the fixed-seed byte-identity contract, and the runtime trace recorder's
// causal-consistency guarantee on a live threaded cluster.
#include "obs/export.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "obs/metrics.h"
#include "obs/runtime_trace.h"
#include "runtime/runtime_node.h"
#include "sim/abcast_world.h"
#include "sim/trace.h"

namespace zdc::obs {
namespace {

// The registry owns a mutex, so it is neither copyable nor movable; golden
// tests fill a caller-provided instance and snapshot it.
MetricsRegistry::Snapshot golden_snapshot() {
  MetricsRegistry reg;
  reg.counter("req_total", {{"process", "0"}}).inc(3);
  reg.gauge("depth").set(2.5);
  Histogram& h = reg.histogram("lat", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(99.0);
  return reg.snapshot();
}

TEST(Exporter, JsonGolden) {
  const std::string json = to_json(golden_snapshot());
  EXPECT_EQ(json,
            "{\n"
            "  \"schema\": \"zdc-metrics-v1\",\n"
            "  \"families\": [\n"
            "    {\"name\": \"depth\", \"type\": \"gauge\", \"points\": [\n"
            "      {\"labels\": {}, \"value\": 2.5}\n"
            "    ]},\n"
            "    {\"name\": \"lat\", \"type\": \"histogram\", \"points\": [\n"
            "      {\"labels\": {}, \"count\": 3, \"sum\": 104.5, "
            "\"bounds\": [1, 10], \"buckets\": [1, 1, 1]}\n"
            "    ]},\n"
            "    {\"name\": \"req_total\", \"type\": \"counter\", "
            "\"points\": [\n"
            "      {\"labels\": {\"process\": \"0\"}, \"value\": 3}\n"
            "    ]}\n"
            "  ]\n"
            "}\n");
}

TEST(Exporter, PrometheusGolden) {
  const std::string text = to_prometheus(golden_snapshot());
  EXPECT_EQ(text,
            "# TYPE depth gauge\n"
            "depth 2.5\n"
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"1\"} 1\n"
            "lat_bucket{le=\"10\"} 2\n"
            "lat_bucket{le=\"+Inf\"} 3\n"
            "lat_sum 104.5\n"
            "lat_count 3\n"
            "# TYPE req_total counter\n"
            "req_total{process=\"0\"} 3\n");
}

TEST(Exporter, ValidatorAcceptsOwnOutput) {
  EXPECT_EQ(validate_metrics_json(to_json(golden_snapshot())),
            "");
}

TEST(Exporter, ValidatorRejectsMalformedDocuments) {
  EXPECT_NE(validate_metrics_json(""), "");
  EXPECT_NE(validate_metrics_json("{\"schema\": \"zdc-metrics-v2\", "
                                  "\"families\": []}"),
            "");
  // Empty families list is rejected: a run that registered nothing has no
  // business exporting.
  EXPECT_EQ(validate_metrics_json("{\"schema\": \"zdc-metrics-v1\", "
                                  "\"families\": []}"),
            "families is empty");
  // Histogram bucket arity must be bounds + 1.
  EXPECT_EQ(
      validate_metrics_json(
          "{\"schema\": \"zdc-metrics-v1\", \"families\": ["
          "{\"name\": \"h\", \"type\": \"histogram\", \"points\": ["
          "{\"labels\": {}, \"count\": 1, \"sum\": 1, \"bounds\": [1, 2], "
          "\"buckets\": [1]}]}]}"),
      "buckets arity != bounds + 1");
  // Counter values must be non-negative integers.
  EXPECT_NE(validate_metrics_json(
                "{\"schema\": \"zdc-metrics-v1\", \"families\": ["
                "{\"name\": \"c\", \"type\": \"counter\", \"points\": ["
                "{\"labels\": {}, \"value\": 1.5}]}]}"),
            "");
  // Bucket counts must sum to count.
  EXPECT_EQ(
      validate_metrics_json(
          "{\"schema\": \"zdc-metrics-v1\", \"families\": ["
          "{\"name\": \"h\", \"type\": \"histogram\", \"points\": ["
          "{\"labels\": {}, \"count\": 5, \"sum\": 1, \"bounds\": [1], "
          "\"buckets\": [1, 1]}]}]}"),
      "bucket counts do not sum to count");
  const std::string good = to_json(golden_snapshot());
  EXPECT_EQ(validate_metrics_json(good + "x"), "trailing garbage");
}

// The shared strict reader underneath: only JSON-grammar numbers, and each
// key once per object.
TEST(Exporter, ValidatorRejectsNonJsonNumbersAndDuplicateKeys) {
  auto gauge_doc = [](const std::string& point) {
    return "{\"schema\": \"zdc-metrics-v1\", \"families\": ["
           "{\"name\": \"g\", \"type\": \"gauge\", \"points\": [" +
           point + "]}]}";
  };
  EXPECT_EQ(validate_metrics_json(gauge_doc("{\"labels\": {}, \"value\": 1}")),
            "");
  EXPECT_EQ(
      validate_metrics_json(gauge_doc("{\"labels\": {}, \"value\": nan}")),
      "bad value 'nan'");
  EXPECT_EQ(
      validate_metrics_json(gauge_doc("{\"labels\": {}, \"value\": 0x10}")),
      "bad value '0x10'");
  EXPECT_EQ(
      validate_metrics_json(gauge_doc("{\"labels\": {}, \"value\": -inf}")),
      "bad value '-inf'");
  EXPECT_EQ(
      validate_metrics_json(gauge_doc("{\"labels\": {}, \"value\": +1}")),
      "bad value '+1'");
  EXPECT_EQ(validate_metrics_json(
                gauge_doc("{\"labels\": {}, \"value\": 1, \"value\": 2}")),
            "duplicate key 'value'");
}

// The determinism contract: two sim runs with identical configs produce
// byte-identical metrics JSON (counter bumps never touch the RNG or the
// event queue, and snapshot/export ordering is canonical).
TEST(Exporter, FixedSeedSimRunsAreByteIdentical) {
  auto run_once = []() -> std::string {
    MetricsRegistry reg;
    sim::AbcastRunConfig cfg;
    cfg.seed = 42;
    cfg.message_count = 60;
    cfg.metrics = &reg;
    const auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name("c-l"));
    EXPECT_TRUE(r.safe());
    return to_json(reg.snapshot());
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(validate_metrics_json(first), "");
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("zdc_sim_delivery_latency_ms"), std::string::npos);
  EXPECT_NE(first.find("zdc_sim_decisions_total"), std::string::npos);
}

// RuntimeTraceRecorder on a live threaded cluster: the frozen trace must be
// causally consistent (every delivery matched by an earlier send) even though
// events were recorded from concurrent worker threads.
TEST(RuntimeTrace, LiveClusterTraceIsCausallyConsistent) {
  MetricsRegistry reg;
  RuntimeTraceRecorder recorder;
  runtime::RuntimeCluster::Config cfg;
  cfg.metrics = &reg;
  cfg.trace = &recorder;

  std::atomic<std::uint64_t> delivered{0};
  runtime::RuntimeCluster cluster(
      cfg, [&delivered](ProcessId, const abcast::AppMessage&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
  cluster.start();
  constexpr std::uint32_t kMessages = 10;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    cluster.node(i % cfg.group.n).a_broadcast("m" + std::to_string(i));
  }
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] { return delivered.load() >= kMessages * cfg.group.n; }, 30'000.0));
  cluster.shutdown();

  ASSERT_GT(recorder.size(), 0u);
  const sim::TraceRecorder trace = recorder.freeze();
  EXPECT_TRUE(trace.causally_consistent());

  // The cluster also fed the registry: node counters must match deliveries.
  std::uint64_t node_deliveries = 0;
  for (ProcessId p = 0; p < cfg.group.n; ++p) {
    node_deliveries =
        node_deliveries +
        reg.counter("zdc_node_a_deliveries_total", process_label(p)).value();
  }
  EXPECT_GE(node_deliveries, static_cast<std::uint64_t>(kMessages) *
                                 cfg.group.n);
}

}  // namespace
}  // namespace zdc::obs
