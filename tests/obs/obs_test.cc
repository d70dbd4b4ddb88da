#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "json_lint.h"

namespace iotdb {
namespace obs {
namespace {

// Deterministic 64-bit LCG so the percentile tests are reproducible.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 17;
  }

 private:
  uint64_t state_;
};

// --- Bucket geometry -------------------------------------------------------

TEST(LatencyHistogramBuckets, ValuesBelowSixteenAreExact) {
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    size_t idx = LatencyHistogram::BucketIndexFor(v);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(idx), v);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(idx), v);
  }
}

TEST(LatencyHistogramBuckets, BoundsBracketEveryValue) {
  std::vector<uint64_t> probes;
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t p = uint64_t{1} << bit;
    probes.push_back(p);
    probes.push_back(p - 1);
    probes.push_back(p + 1);
    probes.push_back(p + p / 3);
  }
  Lcg rng(42);
  for (int i = 0; i < 10000; ++i) probes.push_back(rng.Next());
  for (uint64_t v : probes) {
    size_t idx = LatencyHistogram::BucketIndexFor(v);
    ASSERT_LT(idx, LatencyHistogram::kNumBuckets);
    EXPECT_LE(LatencyHistogram::BucketLowerBound(idx), v)
        << "value " << v << " bucket " << idx;
    EXPECT_GE(LatencyHistogram::BucketUpperBound(idx), v)
        << "value " << v << " bucket " << idx;
  }
}

TEST(LatencyHistogramBuckets, BucketsTileTheRangeWithoutGaps) {
  // Each bucket's lower bound must be exactly one past the previous
  // bucket's inclusive upper bound — no gaps, no overlaps.
  for (size_t idx = 1; idx < LatencyHistogram::kNumBuckets; ++idx) {
    uint64_t prev_hi = LatencyHistogram::BucketUpperBound(idx - 1);
    uint64_t lo = LatencyHistogram::BucketLowerBound(idx);
    if (prev_hi == std::numeric_limits<uint64_t>::max()) break;
    ASSERT_EQ(lo, prev_hi + 1) << "gap/overlap at bucket " << idx;
  }
}

TEST(LatencyHistogramBuckets, RelativeWidthIsBounded) {
  // Above the exact range the bucket width is at most lower/16, which is
  // what bounds the pre-interpolation quantile error at 6.25%.
  for (size_t idx = LatencyHistogram::kSubBuckets;
       idx < LatencyHistogram::kNumBuckets; ++idx) {
    uint64_t lo = LatencyHistogram::BucketLowerBound(idx);
    uint64_t hi = LatencyHistogram::BucketUpperBound(idx);
    if (hi == std::numeric_limits<uint64_t>::max()) break;
    uint64_t width = hi - lo + 1;
    EXPECT_LE(width, std::max<uint64_t>(1, lo / 16))
        << "bucket " << idx << " [" << lo << ", " << hi << "]";
  }
}

// --- Percentile accuracy ---------------------------------------------------

double ExactPercentile(std::vector<uint64_t> sorted, double p) {
  // Nearest-rank on the sorted sample, matching the histogram's "value at
  // or below which p% of samples fall" definition.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return static_cast<double>(sorted[rank - 1]);
}

void CheckPercentiles(const std::vector<uint64_t>& values,
                      double tolerance) {
  LatencyHistogram hist;
  for (uint64_t v : values) hist.Record(v);
  std::vector<uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {50.0, 95.0, 99.0, 99.9}) {
    double exact = ExactPercentile(sorted, p);
    double approx = hist.Percentile(p);
    double err = exact > 0 ? std::abs(approx - exact) / exact : 0.0;
    EXPECT_LE(err, tolerance)
        << "p" << p << ": exact " << exact << " approx " << approx;
  }
}

TEST(LatencyHistogramPercentiles, UniformDistribution) {
  Lcg rng(1);
  std::vector<uint64_t> values;
  for (int i = 0; i < 50000; ++i) values.push_back(rng.Next() % 1000000);
  CheckPercentiles(values, 0.07);
}

TEST(LatencyHistogramPercentiles, HeavyTailedDistribution) {
  // Latency-shaped: mostly small with a long tail across several octaves.
  Lcg rng(2);
  std::vector<uint64_t> values;
  for (int i = 0; i < 50000; ++i) {
    uint64_t base = 50 + rng.Next() % 200;
    if (rng.Next() % 100 < 5) base *= 1 + rng.Next() % 500;
    values.push_back(base);
  }
  CheckPercentiles(values, 0.07);
}

TEST(LatencyHistogramPercentiles, SmallExactValues) {
  // Everything below 16 lands in exact buckets: zero error.
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 16);
  LatencyHistogram hist;
  for (uint64_t v : values) hist.Record(v);
  std::vector<uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_NEAR(hist.Percentile(p), ExactPercentile(sorted, p), 1.0);
  }
}

TEST(LatencyHistogram, CountSumMinMaxAreExact) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.Min(), 0u);
  hist.Record(7);
  hist.Record(100);
  hist.Record(3);
  EXPECT_EQ(hist.Count(), 3u);
  EXPECT_EQ(hist.Sum(), 110u);
  EXPECT_EQ(hist.Min(), 3u);
  EXPECT_EQ(hist.Max(), 100u);
  EXPECT_NEAR(hist.Mean(), 110.0 / 3.0, 1e-9);
}

// --- Concurrency (run under TSan via the obs_tsan tier) --------------------

TEST(CounterConcurrency, ParallelAddsAreNotLost) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(HistogramConcurrency, ParallelRecordsAreNotLost) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  LatencyHistogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t) * 1000 + (i % 997));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hist.Count(), kThreads * kPerThread);
  HistogramSnapshot snap = hist.TakeSnapshot();
  uint64_t bucket_total = 0;
  for (const auto& [idx, n] : snap.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(RegistryConcurrency, LookupsRacingWithWritersAndSnapshots) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t]() {
      // Same names from every thread: pointers must be stable and shared.
      Counter* c = registry.GetCounter("race.counter");
      LatencyHistogram* h = registry.GetHistogram("race.hist");
      Gauge* g = registry.GetGauge("race.gauge." + std::to_string(t % 2));
      for (int i = 0; i < 20000; ++i) {
        c->Increment();
        h->Record(static_cast<uint64_t>(i));
        g->Add(1);
        if (i % 4096 == 0) {
          MetricsSnapshot snap = registry.TakeSnapshot();
          ASSERT_LE(snap.counters.at("race.counter"),
                    uint64_t{kThreads} * 20000);
        }
      }
      EXPECT_EQ(registry.GetCounter("race.counter"), c);
      EXPECT_EQ(registry.GetHistogram("race.hist"), h);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.GetCounter("race.counter")->Value(),
            uint64_t{kThreads} * 20000);
  EXPECT_EQ(registry.GetHistogram("race.hist")->Count(),
            uint64_t{kThreads} * 20000);
}

// --- Registry / snapshot semantics -----------------------------------------

TEST(MetricsRegistry, InstrumentPointersAreStableAndNamespaced) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("stable.name");
  Gauge* g = registry.GetGauge("stable.name");
  LatencyHistogram* h = registry.GetHistogram("stable.name");
  EXPECT_EQ(registry.GetCounter("stable.name"), c);
  EXPECT_EQ(registry.GetGauge("stable.name"), g);
  EXPECT_EQ(registry.GetHistogram("stable.name"), h);
  c->Add(5);
  g->Set(-3);
  h->Record(9);
  MetricsSnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("stable.name"), 5u);
  EXPECT_EQ(snap.gauges.at("stable.name"), -3);
  EXPECT_EQ(snap.histograms.at("stable.name").count, 1u);
}

TEST(MetricsSnapshot, DeltaSubtractsCountersAndKeepsGauges) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("delta.ops");
  Gauge* g = registry.GetGauge("delta.depth");
  LatencyHistogram* h = registry.GetHistogram("delta.lat");
  c->Add(10);
  g->Set(4);
  h->Record(100);
  h->Record(200);
  MetricsSnapshot before = registry.TakeSnapshot();
  c->Add(7);
  g->Set(2);
  h->Record(100);
  MetricsSnapshot after = registry.TakeSnapshot();
  MetricsSnapshot delta = after.DeltaSince(before);
  EXPECT_EQ(delta.counters.at("delta.ops"), 7u);
  EXPECT_EQ(delta.gauges.at("delta.depth"), 2);  // level, not subtracted
  EXPECT_EQ(delta.histograms.at("delta.lat").count, 1u);
  EXPECT_EQ(delta.histograms.at("delta.lat").sum, 100u);
  // Instruments born after `before` appear whole.
  registry.GetCounter("delta.born_late")->Add(3);
  MetricsSnapshot third = registry.TakeSnapshot();
  EXPECT_EQ(third.DeltaSince(before).counters.at("delta.born_late"), 3u);
}

TEST(MetricsSnapshot, HistogramDeltaPercentilesCoverOnlyTheWindow) {
  LatencyHistogram hist;
  for (int i = 0; i < 1000; ++i) hist.Record(10);
  HistogramSnapshot before = hist.TakeSnapshot();
  for (int i = 0; i < 1000; ++i) hist.Record(100000);
  HistogramSnapshot delta = hist.TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.count, 1000u);
  // The old 10s subtracted out: the window's p50 sits near 100000.
  EXPECT_GE(delta.Percentile(50), 90000.0);
}

// --- JSON export -----------------------------------------------------------

TEST(MetricsSnapshotJson, ToJsonIsExact) {
  MetricsRegistry registry;
  registry.GetCounter("json.a")->Add(123456789);
  registry.GetCounter("json.b\"quoted\\name")->Add(1);
  registry.GetGauge("json.depth")->Set(-42);
  LatencyHistogram* h = registry.GetHistogram("json.lat");
  h->Record(3);    // bucket 3 (exact below 16)
  h->Record(100);  // bucket 57
  h->Record(100);
  registry.GetHistogram("json.empty");
  const std::string expected =
      R"({"counters":{"json.a":123456789,"json.b\"quoted\\name":1},)"
      R"("gauges":{"json.depth":-42},"histograms":{)"
      R"("json.empty":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]},)"
      R"("json.lat":{"count":3,"sum":203,"min":3,"max":100,)"
      R"("buckets":[[3,1],[57,2]]}}})";
  EXPECT_EQ(registry.TakeSnapshot().ToJson(), expected);

  EXPECT_EQ(MetricsSnapshot().ToJson(),
            R"({"counters":{},"gauges":{},"histograms":{}})");

  LatencyHistogram* big = registry.GetHistogram("json.big");
  Lcg rng(3);
  for (int i = 0; i < 10000; ++i) big->Record(rng.Next() % 5000000);
  const std::string json = registry.TakeSnapshot().ToJson();
  EXPECT_TRUE(testing::JsonLint::Valid(json)) << json;
}

TEST(MetricsSnapshot, TableListsEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("table.ops")->Add(9);
  registry.GetGauge("table.depth")->Set(2);
  registry.GetHistogram("table.lat")->Record(50);
  std::string table = registry.TakeSnapshot().ToTable();
  EXPECT_NE(table.find("table.ops"), std::string::npos);
  EXPECT_NE(table.find("table.depth"), std::string::npos);
  EXPECT_NE(table.find("table.lat"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
}

// --- Timers ----------------------------------------------------------------

TEST(TraceSpan, RecordsIntoGlobalRegistryByName) {
  ManualClock clock(0);
  {
    TraceSpan span("test.tracespan.span_micros", &clock);
    clock.Advance(77);
  }
  LatencyHistogram* h = MetricsRegistry::Global().GetHistogram(
      "test.tracespan.span_micros");
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_EQ(h->Max(), 77u);
}

}  // namespace
}  // namespace obs
}  // namespace iotdb
