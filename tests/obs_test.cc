#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/paper_example.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "parallel/dmatch.h"

namespace dcer {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter.

TEST(JsonWriterTest, NestedObjectsArraysAndEscaping) {
  JsonWriter w;
  w.BeginObject();
  w.KV("s", "a\"b\\c\nd");
  w.KV("n", uint64_t{42});
  w.KV("f", 0.5);
  w.KV("b", true);
  w.Key("arr").BeginArray();
  w.Value(uint64_t{1});
  w.Value(uint64_t{2});
  w.EndArray();
  w.Key("o").BeginObject().KV("x", int64_t{-3}).EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"n\":42,\"f\":0.5,\"b\":true,"
            "\"arr\":[1,2],\"o\":{\"x\":-3}}");
}

// ---------------------------------------------------------------------------
// Counters under concurrency: striped cells must never lose an increment.

TEST(ObsMetricsTest, ConcurrentCounterIncrementsFromPoolAreExact) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("test.concurrent_counter");
  c->Reset();
  constexpr int kTasks = 64;
  constexpr int kPerTask = 10000;
  ThreadPool& pool = ThreadPool::Global();
  TaskGroup group(&pool);
  for (int t = 0; t < kTasks; ++t) {
    group.Run([c] {
      for (int i = 0; i < kPerTask; ++i) c->Increment();
    });
  }
  group.Wait();
  EXPECT_EQ(c->Value(), uint64_t{kTasks} * kPerTask);
}

TEST(ObsMetricsTest, ConcurrentHistogramRecordsAreExact) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("test.concurrent_hist");
  constexpr int kTasks = 32;
  constexpr int kPerTask = 4000;
  const uint64_t count_before = h->TotalCount();
  const uint64_t sum_before = h->TotalSum();
  ThreadPool& pool = ThreadPool::Global();
  TaskGroup group(&pool);
  for (int t = 0; t < kTasks; ++t) {
    group.Run([h] {
      for (int i = 0; i < kPerTask; ++i) h->Record(7);
    });
  }
  group.Wait();
  EXPECT_EQ(h->TotalCount() - count_before, uint64_t{kTasks} * kPerTask);
  EXPECT_EQ(h->TotalSum() - sum_before, uint64_t{kTasks} * kPerTask * 7);
}

TEST(ObsMetricsTest, HistogramBucketsByBitWidth) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("test.bucket_hist");
  h->Record(0);   // bucket 0
  h->Record(1);   // bucket 1: [1,1]
  h->Record(5);   // bucket 3: [4,7]
  h->Record(5);
  obs::HistogramSnapshot snap =
      reg.Snapshot().histograms.at("test.bucket_hist");
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 11u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[3], 2u);
}

TEST(ObsMetricsTest, SnapshotDeltaSubtractsPerMetric) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("test.delta_counter");
  c->Reset();
  c->Add(5);
  obs::MetricsSnapshot before = reg.Snapshot();
  c->Add(7);
  obs::MetricsSnapshot delta = reg.Snapshot().Delta(before);
  EXPECT_EQ(delta.counters.at("test.delta_counter"), 7u);
}

TEST(ObsMetricsTest, DeterministicEqualsIgnoresTimingHistograms) {
  obs::MetricsSnapshot a;
  obs::MetricsSnapshot b;
  a.counters["x"] = 3;
  b.counters["x"] = 3;
  obs::HistogramSnapshot ta;
  ta.unit = obs::Histogram::Unit::kNanos;
  ta.count = 1;
  ta.sum = 123;
  ta.buckets.assign(obs::Histogram::kBuckets, 0);
  obs::HistogramSnapshot tb = ta;
  tb.sum = 456;  // different timing — must not break equality
  a.histograms["t"] = ta;
  b.histograms["t"] = tb;
  EXPECT_TRUE(a.DeterministicEquals(b));
  b.counters["x"] = 4;
  EXPECT_FALSE(a.DeterministicEquals(b));
}

// Quantile estimation pinned against the exact empirical quantiles of the
// recorded samples. Buckets are power-of-two wide, so without interpolation
// the estimate for a quantile landing mid-bucket could be off by ~2x; with
// linear interpolation inside the bucket it must stay within the bucket's
// granularity of the true value.
TEST(ObsMetricsTest, QuantileInterpolatesWithinBuckets) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("test.quantile_pin_hist");
  // Deterministic LCG spread over [1, 4096): several orders of magnitude so
  // high and low quantiles land in different buckets.
  std::vector<uint64_t> samples;
  uint64_t x = 12345;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t v = 1 + (x >> 33) % 4095;
    samples.push_back(v);
    h->Record(v);
  }
  std::sort(samples.begin(), samples.end());
  obs::HistogramSnapshot snap =
      reg.Snapshot().histograms.at("test.quantile_pin_hist");
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = static_cast<double>(
        samples[std::min(samples.size() - 1,
                         static_cast<size_t>(q * samples.size()))]);
    const double est = snap.Quantile(q);
    // Interpolation cannot beat the bucket's resolution, but it must stay
    // well inside the 2x band a bucket-upper-bound estimator is limited to.
    EXPECT_NEAR(est, exact, 0.15 * exact + 2.0)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
  // Degenerate cases: empty histogram and all-zero samples report 0.
  obs::HistogramSnapshot empty;
  empty.buckets.assign(obs::Histogram::kBuckets, 0);
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  obs::Histogram* zeros = reg.GetHistogram("test.quantile_zero_hist");
  zeros->Record(0);
  zeros->Record(0);
  EXPECT_EQ(
      reg.Snapshot().histograms.at("test.quantile_zero_hist").Quantile(0.9),
      0.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition: render → parse must round-trip structure and
// values for every metric kind.

TEST(ObsMetricsTest, ExpositionRoundTripsAllMetricKinds) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("test.expo.requests");
  c->Reset();
  c->Add(42);
  reg.GetGauge("test.expo.workers")->Set(8);
  obs::Histogram* sizes = reg.GetHistogram("test.expo.batch_size");
  sizes->Record(1);
  sizes->Record(5);
  sizes->Record(5);
  obs::Histogram* lat =
      reg.GetHistogram("test.expo.latency", obs::Histogram::Unit::kNanos);
  lat->Record(1500000000);  // 1.5s

  const std::string text = obs::RenderExposition(reg.Snapshot());
  obs::ExpositionParse parsed = obs::ParseExposition(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << text;

  // Counter: the family (and its TYPE line) carry the `_total` suffix.
  ASSERT_TRUE(parsed.HasFamily("test_expo_requests_total"));
  EXPECT_EQ(parsed.types.at("test_expo_requests_total"), "counter");
  EXPECT_EQ(parsed.Value("test_expo_requests_total"), 42.0);

  // Gauge: bare name.
  ASSERT_TRUE(parsed.HasFamily("test_expo_workers"));
  EXPECT_EQ(parsed.Value("test_expo_workers"), 8.0);

  // Count histogram: cumulative buckets ending at the total, sum intact.
  ASSERT_TRUE(parsed.HasFamily("test_expo_batch_size"));
  EXPECT_EQ(parsed.types.at("test_expo_batch_size"), "histogram");
  EXPECT_EQ(parsed.Value("test_expo_batch_size_count"), 3.0);
  EXPECT_EQ(parsed.Value("test_expo_batch_size_sum"), 11.0);
  std::vector<double> buckets = parsed.BucketCounts("test_expo_batch_size");
  ASSERT_FALSE(buckets.empty());
  EXPECT_TRUE(std::is_sorted(buckets.begin(), buckets.end()));
  EXPECT_EQ(buckets.back(), 3.0);  // le="+Inf" equals _count

  // Timing histogram: renders in seconds under a `_seconds` family.
  ASSERT_TRUE(parsed.HasFamily("test_expo_latency_seconds"));
  EXPECT_FALSE(parsed.HasFamily("test_expo_latency"));
  EXPECT_EQ(parsed.Value("test_expo_latency_seconds_count"), 1.0);
  EXPECT_NEAR(parsed.Value("test_expo_latency_seconds_sum"), 1.5, 1e-9);

  // Garbage inputs are rejected, not half-parsed.
  EXPECT_FALSE(obs::ParseExposition("test_expo_requests_total\n").ok());
  EXPECT_FALSE(obs::ParseExposition("name not_a_number\n").ok());
}

// ---------------------------------------------------------------------------
// Trace spans.

TEST(ObsTraceTest, SpanNestingDepthAndEventCollection) {
  obs::SetTraceEnabled(true);
  obs::ClearTrace();
  EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 0);
  {
    DCER_TRACE("outer");
    EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 1);
    {
      obs::TraceSpan inner(std::string("inner"));
      EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 2);
    }
    EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 1);
  }
  EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 0);
  EXPECT_EQ(obs::TraceEventCount(), 2u);
  std::string json = obs::ChromeTraceJson();
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos) << json;
  // The inner span records depth 1 (child of the live outer span).
  EXPECT_NE(json.find("\"depth\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
}

TEST(ObsTraceTest, DisabledSpansRecordNothing) {
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
  {
    DCER_TRACE("ghost");
    EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 0);
  }
  EXPECT_EQ(obs::TraceEventCount(), 0u);
}

// Flushing while spans are still open (daemon shutdown with an in-flight
// request) must emit clean JSON: closed spans appear, the open span is
// simply absent — never a torn or half-written event.
TEST(ObsTraceTest, FlushWithOpenSpanEmitsOnlyCompletedSpans) {
  obs::SetTraceEnabled(true);
  obs::ClearTrace();
  std::string mid_json;
  {
    DCER_TRACE("still_open");
    {
      DCER_TRACE("finished_child");
    }
    mid_json = obs::ChromeTraceJson();
  }
  // Mid-flight flush: the closed child is there, the open parent is not.
  EXPECT_NE(mid_json.find("\"name\":\"finished_child\""), std::string::npos)
      << mid_json;
  EXPECT_EQ(mid_json.find("\"name\":\"still_open\""), std::string::npos)
      << mid_json;
  // Structurally clean: balanced braces/brackets, no dangling comma.
  EXPECT_EQ(std::count(mid_json.begin(), mid_json.end(), '{'),
            std::count(mid_json.begin(), mid_json.end(), '}'));
  EXPECT_EQ(std::count(mid_json.begin(), mid_json.end(), '['),
            std::count(mid_json.begin(), mid_json.end(), ']'));
  EXPECT_EQ(mid_json.find(",]"), std::string::npos) << mid_json;
  // Once the span closes it shows up in the next flush.
  std::string final_json = obs::ChromeTraceJson();
  EXPECT_NE(final_json.find("\"name\":\"still_open\""), std::string::npos)
      << final_json;
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
}

// ---------------------------------------------------------------------------
// RunReport JSON.

TEST(RunReportTest, ToJsonEmitsAllSections) {
  RunReport r;
  r.matched_pairs = 3;
  r.validated_ml = 2;
  r.seconds = 0.25;
  r.chase.valuations = 10;
  r.chase.join_candidates = 40;
  r.ml_predictions = 9;
  r.ml_cache_hits = 4;
  SuperstepStats ss;
  ss.step = 0;
  ss.max_seconds = 0.5;
  ss.mean_seconds = 0.25;
  ss.skew = 2.0;
  ss.worker_seconds = {0.5, 0.0};
  ss.messages = 12;
  ss.bytes = 96;
  r.superstep_stats.push_back(ss);
  std::string json = r.ToJson();
  EXPECT_NE(json.find("\"matched_pairs\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"chase\":{\"valuations\":10"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"join_candidates\":40"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache\":{\"ml_predictions\":9,\"ml_cache_hits\":4}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"supersteps\":[{\"step\":0"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"skew\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"messages\":12"), std::string::npos) << json;
  // No metrics section when the snapshot is empty.
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos) << json;
}

TEST(RunReportTest, MetricsSnapshotJsonSeparatesTimings) {
  obs::MetricsSnapshot snap;
  snap.counters["chase.valuations"] = 7;
  obs::HistogramSnapshot count_hist;
  count_hist.unit = obs::Histogram::Unit::kCount;
  count_hist.count = 1;
  count_hist.sum = 5;
  count_hist.buckets.assign(obs::Histogram::kBuckets, 0);
  count_hist.buckets[3] = 1;
  snap.histograms["hypart.block_size"] = count_hist;
  obs::HistogramSnapshot nanos_hist = count_hist;
  nanos_hist.unit = obs::Histogram::Unit::kNanos;
  snap.histograms["chase.rule_deduce_seconds"] = nanos_hist;
  JsonWriter w;
  snap.AppendJson(&w);
  std::string json = w.str();
  // Count-unit histograms live under "histograms", kNanos under "timings".
  size_t hist_pos = json.find("\"histograms\":{");
  size_t timings_pos = json.find("\"timings\":{");
  ASSERT_NE(hist_pos, std::string::npos) << json;
  ASSERT_NE(timings_pos, std::string::npos) << json;
  size_t block_pos = json.find("\"hypart.block_size\"");
  size_t deduce_pos = json.find("\"chase.rule_deduce_seconds\"");
  EXPECT_GT(block_pos, hist_pos);
  EXPECT_LT(block_pos, timings_pos);
  EXPECT_GT(deduce_pos, timings_pos);
  // Bucket keys are the inclusive upper bound: bit-width bucket 3 = [4,7].
  EXPECT_NE(json.find("\"buckets\":{\"7\":1}"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Determinism contract: every counter / gauge / count-histogram the engine
// feeds is bit-identical whether the DMatch workers run one after another
// or on the pool.

obs::MetricsSnapshot RunDMatchWithMetrics(bool run_parallel) {
  auto ex = MakePaperExample();
  obs::MetricsRegistry::Global().ResetAll();
  DMatchOptions options;
  options.num_workers = 4;
  options.run_parallel = run_parallel;
  MatchContext result(ex->dataset);
  DMatchReport report =
      engine::DMatch(ex->dataset, ex->rules, ex->registry, options, &result);
  EXPECT_FALSE(report.metrics.empty());
  return obs::MetricsRegistry::Global().Snapshot();
}

TEST(ObsDeterminismTest, DMatchCountersIdenticalAcrossThreadCounts) {
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsSnapshot seq = RunDMatchWithMetrics(false);
  obs::MetricsSnapshot par = RunDMatchWithMetrics(true);
  EXPECT_TRUE(seq.DeterministicEquals(par));
  // Sanity: the runs actually fed the registry.
  EXPECT_GT(seq.counters.at("chase.valuations"), 0u);
  EXPECT_GT(seq.counters.at("dmatch.supersteps"), 0u);
  obs::SetMetricsEnabled(was_enabled);
  obs::MetricsRegistry::Global().ResetAll();
}

}  // namespace
}  // namespace dcer
