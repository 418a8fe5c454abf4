// Tests for src/obs: the JSON writer, the metric registry and its three
// exposition formats, and the flight recorder's Chrome trace rendering of
// request traces — plus an end-to-end YCSB-B run through KvDirectServer
// exporting all of them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/core/kv_direct.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json_writer.h"
#include "src/obs/metric_registry.h"
#include "src/obs/request_trace.h"
#include "src/obs/telemetry.h"
#include "src/sim/simulator.h"
#include "src/workload/ycsb.h"

namespace kvd {
namespace {

TEST(JsonWriterTest, NestedStructure) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", std::string_view("bench"));
  w.Key("rows").BeginArray();
  w.BeginObject().Field("mops", 1.5).Field("n", uint64_t{42}).EndObject();
  w.Null();
  w.Bool(true);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            R"({"name":"bench","rows":[{"mops":1.5,"n":42},null,true]})");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  JsonWriter w;
  w.BeginObject().Field("k\"ey", std::string_view("v\nal")).EndObject();
  EXPECT_EQ(w.str(), "{\"k\\\"ey\":\"v\\nal\"}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Number(std::numeric_limits<double>::quiet_NaN());
  w.Number(std::numeric_limits<double>::infinity());
  w.Number(2.5);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,2.5]");
}

TEST(MetricRegistryTest, RegistrationAndLookup) {
  MetricRegistry registry;
  uint64_t ops = 7;
  double depth = 1.25;
  registry.RegisterCounter("test_ops_total", "ops", {}, &ops);
  registry.RegisterGauge("test_depth", "queue depth", {}, [&] { return depth; });
  LatencyHistogram hist;
  hist.Add(100);
  registry.RegisterHistogram("test_latency_ns", "latency", {},
                             [&] { return hist; });

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.CounterValue("test_ops_total"), 7u);
  EXPECT_EQ(registry.GaugeValue("test_depth"), 1.25);
  ASSERT_TRUE(registry.HistogramValue("test_latency_ns").has_value());
  EXPECT_EQ(registry.HistogramValue("test_latency_ns")->count(), 1u);

  // Readers are live: mutating the backing store changes the reported value.
  ops = 9;
  depth = 2.5;
  EXPECT_EQ(registry.CounterValue("test_ops_total"), 9u);
  EXPECT_EQ(registry.GaugeValue("test_depth"), 2.5);

  // Missing names and kind mismatches return nullopt.
  EXPECT_FALSE(registry.CounterValue("no_such_metric").has_value());
  EXPECT_FALSE(registry.CounterValue("test_depth").has_value());
  EXPECT_FALSE(registry.GaugeValue("test_ops_total").has_value());
}

TEST(MetricRegistryTest, LabelsDistinguishSeries) {
  MetricRegistry registry;
  uint64_t a = 1;
  uint64_t b = 2;
  registry.RegisterCounter("link_tlps_total", "tlps", {{"link", "0"}}, &a);
  registry.RegisterCounter("link_tlps_total", "tlps", {{"link", "1"}}, &b);
  EXPECT_EQ(registry.CounterValue("link_tlps_total", {{"link", "0"}}), 1u);
  EXPECT_EQ(registry.CounterValue("link_tlps_total", {{"link", "1"}}), 2u);
  EXPECT_FALSE(registry.CounterValue("link_tlps_total").has_value());
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"link_tlps_total"});
}

TEST(MetricRegistryTest, PrometheusTextGolden) {
  MetricRegistry registry;
  uint64_t gets = 150;
  // Registration order is intentionally unsorted; exposition sorts by name.
  registry.RegisterGauge("kvd_util", "utilization", {}, [] { return 0.5; });
  registry.RegisterCounter("kvd_gets_total", "GET ops", {}, &gets);
  LatencyHistogram hist;
  for (uint64_t i = 1; i <= 4; i++) {
    hist.Add(10);
  }
  registry.RegisterHistogram("kvd_lat_ns", "latency", {}, [&] { return hist; });

  EXPECT_EQ(registry.PrometheusText(),
            "# HELP kvd_gets_total GET ops\n"
            "# TYPE kvd_gets_total counter\n"
            "kvd_gets_total 150\n"
            "# HELP kvd_lat_ns latency\n"
            "# TYPE kvd_lat_ns summary\n"
            "kvd_lat_ns{quantile=\"0.5\"} 10\n"
            "kvd_lat_ns{quantile=\"0.95\"} 10\n"
            "kvd_lat_ns{quantile=\"0.99\"} 10\n"
            "kvd_lat_ns_sum 40\n"
            "kvd_lat_ns_count 4\n"
            "# HELP kvd_util utilization\n"
            "# TYPE kvd_util gauge\n"
            "kvd_util 0.5\n");
}

TEST(MetricRegistryTest, JsonGolden) {
  MetricRegistry registry;
  uint64_t n = 3;
  registry.RegisterCounter("b_total", "b", {{"kind", "x"}}, &n);
  registry.RegisterGauge("a_rate", "a", {}, [] { return 0.25; });
  EXPECT_EQ(registry.ToJson(),
            R"({"metrics":[)"
            R"({"name":"a_rate","type":"gauge","labels":{},"value":0.25},)"
            R"({"name":"b_total","type":"counter","labels":{"kind":"x"},"value":3})"
            R"(]})");
}

TEST(MetricRegistryTest, PlainTextIsSorted) {
  MetricRegistry registry;
  uint64_t z = 1;
  uint64_t a = 2;
  registry.RegisterCounter("z_total", "z", {}, &z);
  registry.RegisterCounter("a_total", "a", {}, &a);
  registry.RegisterGauge("m_rate", "m", {}, [] { return 7.0; });
  EXPECT_EQ(registry.PlainText(),
            "a_total 2\n"
            "m_rate 7\n"
            "z_total 1\n");
}

TEST(MetricRegistryTest, HistogramExpositionIgnoresBucketAllocation) {
  // A histogram never recorded, one recorded, and one recorded then reset
  // (buckets allocated, count zero). Pinned from the histogram that
  // allocated its buckets at construction.
  LatencyHistogram empty;
  LatencyHistogram filled;
  for (uint64_t v : {0, 1, 31, 32, 33, 100, 100, 1000, 4097, 65536}) {
    filled.Add(v);
  }
  LatencyHistogram reset = filled;
  reset.Reset();
  MetricRegistry registry;
  registry.RegisterHistogram("h_empty", "never recorded", {},
                             [&] { return empty; });
  registry.RegisterHistogram("h_filled", "recorded", {{"k", "v"}},
                             [&] { return filled; });
  registry.RegisterHistogram("h_reset", "recorded then reset", {},
                             [&] { return reset; });

  EXPECT_EQ(registry.PrometheusText(),
            "# HELP h_empty never recorded\n"
            "# TYPE h_empty summary\n"
            "h_empty{quantile=\"0.5\"} 0\n"
            "h_empty{quantile=\"0.95\"} 0\n"
            "h_empty{quantile=\"0.99\"} 0\n"
            "h_empty_sum 0\n"
            "h_empty_count 0\n"
            "# HELP h_filled recorded\n"
            "# TYPE h_filled summary\n"
            "h_filled{k=\"v\",quantile=\"0.5\"} 33\n"
            "h_filled{k=\"v\",quantile=\"0.95\"} 65536\n"
            "h_filled{k=\"v\",quantile=\"0.99\"} 65536\n"
            "h_filled_sum{k=\"v\"} 70930\n"
            "h_filled_count{k=\"v\"} 10\n"
            "# HELP h_reset recorded then reset\n"
            "# TYPE h_reset summary\n"
            "h_reset{quantile=\"0.5\"} 0\n"
            "h_reset{quantile=\"0.95\"} 0\n"
            "h_reset{quantile=\"0.99\"} 0\n"
            "h_reset_sum 0\n"
            "h_reset_count 0\n");
  EXPECT_EQ(
      registry.ToJson(),
      R"({"metrics":[)"
      R"({"name":"h_empty","type":"histogram","labels":{},"count":0,"mean":0,)"
      R"("min":0,"max":0,"p50":0,"p95":0,"p99":0},)"
      R"({"name":"h_filled","type":"histogram","labels":{"k":"v"},"count":10,)"
      R"("mean":7093,"min":0,"max":65536,"p50":33,"p95":65536,"p99":65536},)"
      R"({"name":"h_reset","type":"histogram","labels":{},"count":0,"mean":0,)"
      R"("min":0,"max":0,"p50":0,"p95":0,"p99":0})"
      R"(]})");
  EXPECT_EQ(registry.PlainText(),
            "h_empty n=0 mean=0.0 min=0 p50=0 p95=0 p99=0 max=0\n"
            "h_filled{k=\"v\"} n=10 mean=7093.0 min=0 p50=33 p95=65536 "
            "p99=65536 max=65536\n"
            "h_reset n=0 mean=0.0 min=0 p50=0 p95=0 p99=0 max=0\n");
}

// The Chrome/Perfetto renderer over a hand-built trace: one named track per
// record kind, microsecond timestamps with sub-microsecond fractions.
TEST(ChromeTraceTest, RendersStagesAndSpansAsNamedTracks) {
  Simulator sim;
  MetricRegistry registry;
  Telemetry telemetry(sim, registry, /*enabled=*/true, {}, {});
  FlightRecorder& recorder = telemetry.flight_recorder();

  OpTrace trace;
  trace.id = 7;
  trace.opcode = Opcode::kGet;
  trace.points[static_cast<size_t>(TracePoint::kClientSend)] = kMicrosecond;
  trace.points[static_cast<size_t>(TracePoint::kServerReceive)] =
      2500 * kNanosecond;
  trace.points[static_cast<size_t>(TracePoint::kClientReceive)] =
      4250 * kNanosecond;
  trace.spans.push_back({SpanKind::kDmaTlp, 2500 * kNanosecond,
                         3000 * kNanosecond + 500, 64});
  recorder.OnTraceComplete(trace);

  const std::string json = recorder.ToChromeTraceJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  // Track metadata: the stage track and the one span kind present, nothing
  // for span kinds without slices.
  EXPECT_NE(json.find("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":0,\"args\":{\"name\":\"stage\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":4,\"args\":{\"name\":\"dma_tlp\"}}"),
            std::string::npos);
  EXPECT_EQ(json.find("{\"name\":\"net_wire\"}"), std::string::npos);
  // Stages tile the present checkpoints: 1 -> 2.5 -> 4.25 us.
  EXPECT_NE(json.find("{\"name\":\"net_request\",\"ph\":\"X\",\"ts\":1,"
                      "\"dur\":1.5,\"pid\":0,\"tid\":0,"
                      "\"args\":{\"op\":7,\"opcode\":\"GET\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"net_response\",\"ph\":\"X\",\"ts\":2.5,"
                      "\"dur\":1.75,"),
            std::string::npos);
  // The span keeps picosecond precision as a microsecond fraction.
  EXPECT_NE(json.find("{\"name\":\"dma_tlp\",\"ph\":\"X\",\"ts\":2.5,"
                      "\"dur\":0.5005,\"pid\":0,\"tid\":4,"
                      "\"args\":{\"op\":7,\"opcode\":\"GET\",\"detail\":64}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"metadata\":{\"traces\":1,\"dropped_trace_records\":0}"),
            std::string::npos);
}

constexpr uint64_t kYcsbOps = 2000;

// Request-traced server whose flight-recorder ring holds every op of a
// kYcsbOps run, so the Chrome trace covers the whole run.
ServerConfig TracedYcsbConfig() {
  ServerConfig config;
  config.kvs_memory_bytes = 4 * kMiB;
  config.nic_dram.capacity_bytes = 512 * kKiB;
  config.enable_request_tracing = true;
  config.flight.ring_capacity = kYcsbOps;
  return config;
}

// Loads a YCSB-B corpus, then runs kYcsbOps ops through a framed client.
std::vector<KvResultMessage> RunYcsbB(KvDirectServer& server) {
  WorkloadConfig wl;
  wl.num_keys = 2000;
  wl.value_bytes = 32;
  wl.get_ratio = 0.95;  // YCSB-B
  wl.distribution = KeyDistribution::kLongTail;
  YcsbWorkload workload(wl);
  for (uint64_t id = 0; id < wl.num_keys; id++) {
    const KvOperation op = workload.LoadOpFor(id);
    EXPECT_TRUE(server.Load(op.key, op.value).ok());
  }
  Client client(server);
  for (uint64_t i = 0; i < kYcsbOps; i++) {
    client.Enqueue(workload.NextOp());
  }
  return client.Flush();
}

// Acceptance: a YCSB-B run through the full server exports per-subsystem
// counters in Prometheus text and JSON, and a Perfetto-loadable trace
// rendered from its request traces.
TEST(ObservabilityIntegrationTest, YcsbBExportsMetricsAndTrace) {
  KvDirectServer server(TracedYcsbConfig());
  constexpr uint64_t kOps = kYcsbOps;
  ASSERT_EQ(RunYcsbB(server).size(), kOps);

  const MetricRegistry& metrics = server.metrics();
  // Per-subsystem counters moved: fast-path ops, DMA bytes, dispatcher
  // decisions, slab syncs, network packets.
  EXPECT_EQ(metrics.CounterValue("kvd_proc_retired_total"), kOps);
  EXPECT_GT(*metrics.CounterValue("kvd_pcie_upstream_bytes_total",
                                  {{"link", "pcie0"}}),
            0u);
  EXPECT_GT(*metrics.CounterValue("kvd_dispatch_pcie_total") +
                *metrics.CounterValue("kvd_dispatch_dram_hits_total") +
                *metrics.CounterValue("kvd_dispatch_dram_misses_total"),
            0u);
  EXPECT_GT(*metrics.CounterValue("kvd_slab_sync_dma_total", {{"direction", "read"}}),
            0u);
  EXPECT_GT(*metrics.CounterValue("kvd_net_packets_total", {{"direction", "to_server"}}),
            0u);
  EXPECT_TRUE(metrics.GaugeValue("kvd_dispatch_hit_rate").has_value());
  ASSERT_TRUE(metrics.HistogramValue("kvd_proc_latency_ns").has_value());
  EXPECT_EQ(metrics.HistogramValue("kvd_proc_latency_ns")->count(), kOps);

  // All three exposition formats render.
  const std::string prom = metrics.PrometheusText();
  EXPECT_NE(prom.find("# TYPE kvd_proc_retired_total counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE kvd_proc_latency_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("kvd_pcie_read_tlps_total{link=\"pcie1\"}"),
            std::string::npos);
  const std::string json = metrics.ToJson();
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"kvd_store_kvs\""), std::string::npos);

  // The Chrome trace covers every op and has slices on the PCIe (dma_tlp),
  // dispatcher (mem_access), station, processor-stage and network tracks
  // (a track is named only when it holds a slice).
  const std::string trace = server.flight_recorder().ToChromeTraceJson();
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"traces\":" + std::to_string(kOps)), std::string::npos);
  for (const char* track :
       {"dma_tlp", "mem_access", "station_wait", "stage", "net_wire"}) {
    EXPECT_NE(trace.find("\"args\":{\"name\":\"" + std::string(track) + "\"}"),
              std::string::npos)
        << track;
  }
}

TEST(ObservabilityIntegrationTest, ChromeTraceIsByteIdenticalForSameSeed) {
  auto render = [] {
    KvDirectServer server(TracedYcsbConfig());
    EXPECT_EQ(RunYcsbB(server).size(), kYcsbOps);
    return server.flight_recorder().ToChromeTraceJson();
  };
  const std::string first = render();
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, render());
}

}  // namespace
}  // namespace kvd
