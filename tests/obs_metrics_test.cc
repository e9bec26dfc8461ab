// Unit tests for the observability layer (src/obs/): the shared power-of-
// two histogram, the metrics registry and its Prometheus-style text
// exposition (parsed and cross-checked line by line), the trace context,
// and the slow-query log's two capture populations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/query_metrics.h"
#include "obs/slow_query_log.h"
#include "obs/stat_counter.h"
#include "obs/trace.h"

namespace spatial {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Exposition parsing helpers: a minimal Prometheus text-format reader.

struct ParsedSample {
  std::string name;    // full series name including _bucket/_sum/_count
  std::string labels;  // raw label body, "" when absent
  double value = 0.0;
};

struct ParsedExposition {
  std::map<std::string, std::string> types;  // family -> counter|gauge|...
  std::vector<ParsedSample> samples;

  const ParsedSample* Find(const std::string& name,
                           const std::string& labels = "") const {
    for (const ParsedSample& s : samples) {
      if (s.name == name && s.labels == labels) return &s;
    }
    return nullptr;
  }

  double Value(const std::string& name, const std::string& labels = "") const {
    const ParsedSample* s = Find(name, labels);
    EXPECT_NE(s, nullptr) << "missing series " << name << "{" << labels << "}";
    return s == nullptr ? -1.0 : s->value;
  }
};

// Strict parser: any malformed line fails the calling test (EXPECT_, since
// gtest ASSERT_ cannot be used in a value-returning function).
ParsedExposition MustParse(const std::string& text) {
  ParsedExposition out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_FALSE(line.empty()) << "blank line in exposition";
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name, type;
      fields >> name >> type;
      EXPECT_FALSE(name.empty());
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      out.types[name] = type;
      continue;
    }
    EXPECT_NE(line[0], '#') << "unknown comment line: " << line;
    ParsedSample sample;
    const size_t brace = line.find('{');
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    if (brace != std::string::npos && brace < space) {
      const size_t close = line.find('}', brace);
      EXPECT_NE(close, std::string::npos) << line;
      sample.name = line.substr(0, brace);
      sample.labels = line.substr(brace + 1, close - brace - 1);
    } else {
      sample.name = line.substr(0, space);
    }
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    char* end = nullptr;
    sample.value = std::strtod(value.c_str(), &end);
    EXPECT_TRUE(end != nullptr && *end == '\0')
        << "unparseable value in: " << line;
    out.samples.push_back(std::move(sample));
  }
  return out;
}

// ---------------------------------------------------------------------------
// StatCounter

TEST(StatCounterTest, BehavesLikeUint64) {
  StatCounter c;
  EXPECT_EQ(c, 0u);
  ++c;
  c += 4;
  EXPECT_EQ(static_cast<uint64_t>(c), 5u);
  --c;
  c -= 2;
  EXPECT_EQ(c.value(), 2u);
  StatCounter copy = c;  // copy takes a value snapshot
  ++c;
  EXPECT_EQ(copy.value(), 2u);
  EXPECT_EQ(c.value(), 3u);
  c.Store(42);
  EXPECT_EQ(c.value(), 42u);
}

// ---------------------------------------------------------------------------
// PowerHistogram

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(PowerHistogram::Bucket(0), 0);
  EXPECT_EQ(PowerHistogram::Bucket(1), 1);
  EXPECT_EQ(PowerHistogram::Bucket(2), 2);
  EXPECT_EQ(PowerHistogram::Bucket(3), 2);  // [2, 4)
  EXPECT_EQ(PowerHistogram::Bucket(4), 3);
  EXPECT_EQ(PowerHistogram::Bucket(~0ull), kHistogramBuckets - 1);
}

TEST(HistogramTest, SnapshotAndPercentiles) {
  PowerHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000);  // bucket 10
  h.Record(1'000'000);                           // ~bucket 20
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.total_count, 101u);
  EXPECT_EQ(s.total, 100u * 1000u + 1'000'000u);
  EXPECT_EQ(s.max, 1'000'000u);
  // p50 lands in the 1000-value bucket: upper bound 2^10 - 1 = 1023.
  EXPECT_EQ(s.Percentile(0.5), 1023u);
  EXPECT_GE(s.Percentile(1.0), 1'000'000u - 1);
  EXPECT_NEAR(s.Mean(), (100.0 * 1000.0 + 1e6) / 101.0, 1.0);
}

// Percentile is the nearest rank ceil(p * N): with three samples p50 is
// the second, and with ten samples p95 and p99 are the tenth.
TEST(HistogramTest, PercentileIsNearestRankCeiling) {
  PowerHistogram three;
  for (uint64_t v : {uint64_t{1}, uint64_t{1000}, uint64_t{1'000'000}}) {
    three.Record(v);
  }
  EXPECT_EQ(three.Snapshot().Percentile(0.5), 1023u);

  PowerHistogram ten;
  for (int i = 0; i < 9; ++i) ten.Record(1000);
  ten.Record(1'000'000);  // the only slow sample: bucket [2^19, 2^20)
  const HistogramSnapshot s = ten.Snapshot();
  EXPECT_EQ(s.Percentile(0.95), (uint64_t{1} << 20) - 1);
  EXPECT_EQ(s.Percentile(0.99), (uint64_t{1} << 20) - 1);
  EXPECT_EQ(s.Percentile(0.9), 1023u);
  EXPECT_EQ(s.Percentile(0.0), 1023u);  // rank clamps to 1
}

// 0.07 * 100 evaluates to 7.000000000000001; the rank must still be 7.
TEST(HistogramTest, PercentileRankSurvivesProductRounding) {
  PowerHistogram h;
  for (int i = 0; i < 7; ++i) h.Record(1);
  for (int i = 0; i < 93; ++i) h.Record(1000);
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_GT(0.07 * 100.0, 7.0);
  EXPECT_EQ(s.Percentile(0.07), 1u);
  EXPECT_EQ(s.Percentile(0.08), 1023u);
}

TEST(HistogramTest, MergeAcrossShards) {
  PowerHistogram a, b;
  a.Record(10);
  b.Record(10'000);
  HistogramSnapshot merged = a.Snapshot();
  merged += b.Snapshot();
  EXPECT_EQ(merged.total_count, 2u);
  EXPECT_EQ(merged.total, 10'010u);
  EXPECT_EQ(merged.max, 10'000u);
}

// ---------------------------------------------------------------------------
// AtomicQueryStats

TEST(AtomicQueryStatsTest, AddAndSnapshotRoundTrip) {
  AtomicQueryStats shard;
  QueryStats q;
  q.nodes_visited = 7;
  q.leaf_nodes_visited = 5;
  q.internal_nodes_visited = 2;
  q.distance_computations = 300;
  q.heap_pushes = 40;
  q.heap_pops = 39;
  shard.Add(q);
  shard.Add(q);
  const QueryStats sum = shard.Snapshot();
  EXPECT_EQ(sum.nodes_visited, 14u);
  EXPECT_EQ(sum.leaf_nodes_visited, 10u);
  EXPECT_EQ(sum.internal_nodes_visited, 4u);
  EXPECT_EQ(sum.distance_computations, 600u);
  EXPECT_EQ(sum.heap_pushes, 80u);
  EXPECT_EQ(sum.heap_pops, 78u);
  shard.Reset();
  EXPECT_EQ(shard.Snapshot().nodes_visited, 0u);
}

// ---------------------------------------------------------------------------
// Registry + exposition

TEST(MetricsRegistryTest, OwnedInstrumentsExpose) {
  MetricsRegistry registry;
  Counter* c = registry.AddCounter("test_ops_total", "ops");
  Gauge* g = registry.AddGauge("test_depth", "depth");
  PowerHistogram* h = registry.AddHistogram("test_latency_ns", "latency");
  c->Add(3);
  g->Set(1.5);
  h->Record(100);
  h->Record(200);

  const ParsedExposition parsed = MustParse(registry.ScrapeText());
  EXPECT_EQ(parsed.types.at("test_ops_total"), "counter");
  EXPECT_EQ(parsed.types.at("test_depth"), "gauge");
  EXPECT_EQ(parsed.types.at("test_latency_ns"), "histogram");
  EXPECT_EQ(parsed.Value("test_ops_total"), 3.0);
  EXPECT_DOUBLE_EQ(parsed.Value("test_depth"), 1.5);
  EXPECT_EQ(parsed.Value("test_latency_ns_count"), 2.0);
  EXPECT_EQ(parsed.Value("test_latency_ns_sum"), 300.0);
  EXPECT_EQ(parsed.Value("test_latency_ns_bucket", "le=\"+Inf\""), 2.0);
}

TEST(MetricsRegistryTest, HistogramBucketsAreCumulativeAndConsistent) {
  MetricsRegistry registry;
  PowerHistogram* h = registry.AddHistogram("t_ns", "t");
  h->Record(1);      // bucket 1, ub 1
  h->Record(5);      // bucket 3, ub 7
  h->Record(5);
  h->Record(1000);   // bucket 10, ub 1023

  const ParsedExposition parsed = MustParse(registry.ScrapeText());
  double prev = 0.0;
  int buckets_seen = 0;
  for (const ParsedSample& s : parsed.samples) {
    if (s.name != "t_ns_bucket") continue;
    ++buckets_seen;
    EXPECT_GE(s.value, prev) << "buckets must be cumulative";
    prev = s.value;
  }
  EXPECT_GT(buckets_seen, 1);
  EXPECT_EQ(prev, parsed.Value("t_ns_count"));
  EXPECT_EQ(parsed.Value("t_ns_bucket", "le=\"1\""), 1.0);
  EXPECT_EQ(parsed.Value("t_ns_bucket", "le=\"7\""), 3.0);
  EXPECT_EQ(parsed.Value("t_ns_bucket", "le=\"1023\""), 4.0);
  EXPECT_EQ(parsed.Value("t_ns_bucket", "le=\"+Inf\""), 4.0);
  EXPECT_EQ(parsed.Value("t_ns_sum"), 1011.0);
}

TEST(MetricsRegistryTest, CountersAreMonotoneAcrossScrapes) {
  MetricsRegistry registry;
  Counter* c = registry.AddCounter("mono_total", "m");
  double last = -1.0;
  for (int round = 0; round < 5; ++round) {
    c->Add(static_cast<uint64_t>(round));
    const ParsedExposition parsed = MustParse(registry.ScrapeText());
    const double v = parsed.Value("mono_total");
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_EQ(last, 10.0);  // 0+1+2+3+4
}

TEST(MetricsRegistryTest, CollectorsRunAfterOwnedInstruments) {
  MetricsRegistry registry;
  registry.AddCounter("owned_total", "o");
  registry.AddCollector([](ExpositionWriter& w) {
    w.Family("collected_total", "c", MetricType::kCounter);
    w.Sample("collected_total", "kind=\"knn\"", uint64_t{9});
  });
  const std::string text = registry.ScrapeText();
  EXPECT_LT(text.find("owned_total"), text.find("collected_total"));
  const ParsedExposition parsed = MustParse(text);
  EXPECT_EQ(parsed.Value("collected_total", "kind=\"knn\""), 9.0);
}

// ---------------------------------------------------------------------------
// TraceContext

TEST(TraceTest, CountsNodesPerLevelWithClamp) {
  TraceContext t;
  t.CountNode(0);
  t.CountNode(0);
  t.CountNode(3);
  t.CountNode(200);  // clamps into the top slot
  EXPECT_EQ(t.nodes_per_level[0], 2u);
  EXPECT_EQ(t.nodes_per_level[3], 1u);
  EXPECT_EQ(t.nodes_per_level[kTraceMaxLevels - 1], 1u);
  t.SetSpan(SpanKind::kQueueWait, 42);
  t.SetSpan(SpanKind::kExecute, 100);
  EXPECT_EQ(t.span_ns[0], 42u);
  EXPECT_EQ(t.span_ns[1], 100u);
  t.Reset();
  EXPECT_EQ(t.nodes_per_level[0], 0u);
  EXPECT_EQ(t.span_ns[1], 0u);
}

TEST(TraceTest, SampleDrawRespectsRate) {
  uint64_t rng = 12345;
  EXPECT_FALSE(SampleDraw(&rng, 0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (SampleDraw(&rng, 1'000'000)) ++hits;
  }
  EXPECT_EQ(hits, 10000);  // 100% always samples
  hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (SampleDraw(&rng, 10'000)) ++hits;  // 1%
  }
  EXPECT_GT(hits, 500);
  EXPECT_LT(hits, 2000);
}

// ---------------------------------------------------------------------------
// SlowQueryLog

QueryTraceRecord MakeRecord(uint64_t latency_ns, bool traced = false) {
  QueryTraceRecord r;
  r.worker = 1;
  r.k = 10;
  r.SetKindName("knn");
  r.latency_ns = latency_ns;
  r.queue_wait_ns = 50;
  r.traced = traced;
  r.stats.nodes_visited = 4;
  r.stats.leaf_nodes_visited = 3;
  if (traced) {
    r.nodes_per_level[0] = 3;
    r.nodes_per_level[1] = 1;
  }
  return r;
}

TEST(SlowQueryLogTest, RoutesByThreshold) {
  SlowQueryLog::Options options;
  options.slow_capacity = 4;
  options.sampled_capacity = 4;
  options.slow_threshold_ns = 1000;
  SlowQueryLog log(options);
  log.Record(MakeRecord(2000));  // slow
  log.Record(MakeRecord(10));    // sampled
  EXPECT_EQ(log.total_recorded(), 2u);
  EXPECT_EQ(log.slow_captured(), 1u);
  EXPECT_EQ(log.sampled_captured(), 1u);
  EXPECT_EQ(log.SlowEntries()[0].latency_ns, 2000u);
  EXPECT_EQ(log.SampledEntries()[0].latency_ns, 10u);
}

TEST(SlowQueryLogTest, SlowRingKeepsNewest) {
  SlowQueryLog::Options options;
  options.slow_capacity = 2;
  options.slow_threshold_ns = 0;  // everything is slow
  SlowQueryLog log(options);
  for (uint64_t i = 1; i <= 5; ++i) log.Record(MakeRecord(i * 1000));
  EXPECT_EQ(log.slow_captured(), 2u);
  std::vector<uint64_t> latencies;
  for (const QueryTraceRecord& r : log.SlowEntries()) {
    latencies.push_back(r.latency_ns);
  }
  // Newest-wins ring: the two most recent records survive.
  EXPECT_NE(std::find(latencies.begin(), latencies.end(), 5000u),
            latencies.end());
  EXPECT_NE(std::find(latencies.begin(), latencies.end(), 4000u),
            latencies.end());
}

TEST(SlowQueryLogTest, ReservoirIsBoundedAndUniformish) {
  SlowQueryLog::Options options;
  options.sampled_capacity = 8;
  options.slow_threshold_ns = ~0ull;  // nothing is slow
  SlowQueryLog log(options);
  for (uint64_t i = 0; i < 1000; ++i) log.Record(MakeRecord(i));
  EXPECT_EQ(log.sampled_captured(), 8u);
  EXPECT_EQ(log.total_recorded(), 1000u);
  // Reservoir property: retained set is not just the first 8 offered.
  bool any_late = false;
  for (const QueryTraceRecord& r : log.SampledEntries()) {
    if (r.latency_ns >= 8) any_late = true;
  }
  EXPECT_TRUE(any_late);
}

TEST(SlowQueryLogTest, DumpJsonIsWellFormedEnough) {
  SlowQueryLog::Options options;
  options.slow_threshold_ns = 1000;
  SlowQueryLog log(options);
  log.Record(MakeRecord(5000, /*traced=*/true));
  log.Record(MakeRecord(10));
  const std::string json = log.DumpJson();
  EXPECT_NE(json.find("\"slow_threshold_ns\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"slow\":["), std::string::npos);
  EXPECT_NE(json.find("\"sampled\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"knn\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes_visited\":4"), std::string::npos);
  EXPECT_NE(json.find("\"nodes_per_level\":[3,1]"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

}  // namespace
}  // namespace obs
}  // namespace spatial
