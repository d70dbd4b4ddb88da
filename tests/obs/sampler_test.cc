#include "obs/sampler.h"

#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "obs/metrics.h"
#include "json_lint.h"

namespace iotdb {
namespace obs {
namespace {

// The registry is process-global and shared with every other test in this
// binary, so each test uses its own metric names.

TEST(SamplerTest, StartAndStopToggleRunning) {
  Sampler sampler;
  EXPECT_FALSE(sampler.running());
  EXPECT_TRUE(sampler.Start());
  EXPECT_TRUE(sampler.running());
  EXPECT_FALSE(sampler.Start());  // already running
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
}

TEST(SamplerTest, SampleNowBuildsConsecutiveDeltas) {
  Counter* kvps =
      MetricsRegistry::Global().GetCounter("test.sampler.deltas.kvps");
  Gauge* depth =
      MetricsRegistry::Global().GetGauge("test.sampler.deltas.depth");
  ManualClock clock(1'000'000);
  SamplerOptions options;
  options.clock = &clock;
  Sampler sampler(options);

  sampler.SampleNow();  // primes the base snapshot, no interval yet
  EXPECT_TRUE(sampler.TakeTimeline().empty());

  kvps->Add(100);
  depth->Set(7);
  clock.Advance(1'000'000);
  sampler.SampleNow();

  kvps->Add(250);
  depth->Set(3);
  clock.Advance(1'000'000);
  sampler.SampleNow();

  Timeline timeline = sampler.TakeTimeline();
  ASSERT_EQ(timeline.intervals.size(), 2u);
  EXPECT_EQ(timeline.intervals[0].CounterDelta("test.sampler.deltas.kvps"),
            100u);
  EXPECT_EQ(timeline.intervals[1].CounterDelta("test.sampler.deltas.kvps"),
            250u);
  // Gauges report the level at interval end, not a delta.
  EXPECT_EQ(timeline.intervals[0].GaugeValue("test.sampler.deltas.depth"),
            7);
  EXPECT_EQ(timeline.intervals[1].GaugeValue("test.sampler.deltas.depth"),
            3);
  EXPECT_DOUBLE_EQ(timeline.intervals[0].DurationSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(timeline.intervals[0].Rate("test.sampler.deltas.kvps"),
                   100.0);
  EXPECT_EQ(timeline.CounterTotal("test.sampler.deltas.kvps"), 350u);
}

TEST(SamplerTest, RingWraparoundDropsOldestAndCounts) {
  Counter* kvps =
      MetricsRegistry::Global().GetCounter("test.sampler.wrap.kvps");
  ManualClock clock(0);
  SamplerOptions options;
  options.clock = &clock;
  options.capacity = 4;
  Sampler sampler(options);

  sampler.SampleNow();  // prime
  // Interval i carries delta (i + 1).
  for (uint64_t i = 0; i < 10; ++i) {
    kvps->Add(i + 1);
    clock.Advance(1'000'000);
    sampler.SampleNow();
  }

  Timeline timeline = sampler.TakeTimeline();
  ASSERT_EQ(timeline.intervals.size(), 4u);
  EXPECT_EQ(timeline.dropped_intervals, 6u);
  // Overflow merges at the old end: the oldest interval absorbed deltas
  // 1..7, the three newest keep per-cadence granularity.
  EXPECT_EQ(timeline.intervals[0].CounterDelta("test.sampler.wrap.kvps"),
            1u + 2 + 3 + 4 + 5 + 6 + 7);
  EXPECT_DOUBLE_EQ(timeline.intervals[0].DurationSeconds(), 7.0);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(timeline.intervals[i].CounterDelta("test.sampler.wrap.kvps"),
              7 + i);
  }
  // Merging is lossless for totals: the exact-sum property holds over the
  // whole run even after wraparound.
  EXPECT_EQ(timeline.CounterTotal("test.sampler.wrap.kvps"),
            1u + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10);
}

TEST(SamplerTest, HistogramDeltaAcrossWrapIsPerInterval) {
  LatencyHistogram* lat =
      MetricsRegistry::Global().GetHistogram("test.sampler.wrap.lat");
  ManualClock clock(0);
  SamplerOptions options;
  options.clock = &clock;
  options.capacity = 2;
  Sampler sampler(options);

  sampler.SampleNow();
  for (int i = 0; i < 5; ++i) {
    lat->Record(1000 * (i + 1));
    clock.Advance(1'000'000);
    sampler.SampleNow();
  }

  Timeline timeline = sampler.TakeTimeline();
  ASSERT_EQ(timeline.intervals.size(), 2u);
  EXPECT_EQ(timeline.dropped_intervals, 3u);
  // Histogram deltas are per-interval, not cumulative: the merged oldest
  // interval aggregates the four recordings made during it (count, sum
  // and bucket counts add; min/max span the merge), the newest keeps the
  // single recording made during it.
  auto oldest =
      timeline.intervals[0].delta.histograms.find("test.sampler.wrap.lat");
  ASSERT_NE(oldest, timeline.intervals[0].delta.histograms.end());
  EXPECT_EQ(oldest->second.count, 4u);
  EXPECT_EQ(oldest->second.sum, 1000u + 2000 + 3000 + 4000);
  auto newest =
      timeline.intervals[1].delta.histograms.find("test.sampler.wrap.lat");
  ASSERT_NE(newest, timeline.intervals[1].delta.histograms.end());
  EXPECT_EQ(newest->second.count, 1u);
  EXPECT_EQ(newest->second.sum, 5000u);
}

TEST(SamplerTest, StopFlushesFinalPartialInterval) {
  Counter* kvps =
      MetricsRegistry::Global().GetCounter("test.sampler.flush.kvps");
  ManualClock clock(0);
  SamplerOptions options;
  options.clock = &clock;
  options.cadence_micros = 60'000'000;  // thread never fires on its own
  Sampler sampler(options);

  ASSERT_TRUE(sampler.Start());
  kvps->Add(42);
  clock.Advance(250'000);  // quarter of a second — partial interval
  sampler.Stop();

  Timeline timeline = sampler.TakeTimeline();
  ASSERT_EQ(timeline.intervals.size(), 1u);
  EXPECT_EQ(timeline.intervals[0].CounterDelta("test.sampler.flush.kvps"),
            42u);
  EXPECT_DOUBLE_EQ(timeline.intervals[0].DurationSeconds(), 0.25);
}

TEST(SamplerTest, BackgroundThreadCollectsExactTotals) {
  Counter* kvps =
      MetricsRegistry::Global().GetCounter("test.sampler.thread.kvps");
  SamplerOptions options;
  options.cadence_micros = 5'000;  // 5 ms — several intervals per run
  Sampler sampler(options);

  ASSERT_TRUE(sampler.Start());
  uint64_t total = 0;
  for (int i = 0; i < 20; ++i) {
    kvps->Add(17);
    total += 17;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.Stop();

  Timeline timeline = sampler.TakeTimeline();
  ASSERT_FALSE(timeline.empty());
  // Consecutive deltas telescope and Stop() flushes the tail, so the
  // interval sum is exact regardless of scheduling.
  EXPECT_EQ(timeline.CounterTotal("test.sampler.thread.kvps"), total);
}

TEST(SamplerTest, ToJsonIsWellFormedAndCarriesIngestSeries) {
  Counter* ingest =
      MetricsRegistry::Global().GetCounter("driver.ingest.kvps");
  Counter* node0 =
      MetricsRegistry::Global().GetCounter("cluster.node0.primary_kvps");
  ManualClock clock(0);
  SamplerOptions options;
  options.clock = &clock;
  Sampler sampler(options);

  sampler.SampleNow();
  ingest->Add(500);
  node0->Add(123);
  clock.Advance(1'000'000);
  sampler.SampleNow();

  Timeline timeline = sampler.TakeTimeline();
  std::string json = timeline.ToJson();
  EXPECT_TRUE(testing::JsonLint::Valid(json)) << json;
  EXPECT_NE(json.find("\"cadence_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"ingest_kvps\":500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"node_kvps\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"0\":123"), std::string::npos) << json;
  // Deltas only see increments between the two samples, so prior tests'
  // use of the shared counter cannot leak in.
  EXPECT_EQ(timeline.CounterTotal("driver.ingest.kvps"), 500u);
}

}  // namespace
}  // namespace obs
}  // namespace iotdb
