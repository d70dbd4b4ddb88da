// HistogramSnapshot as the value histogram: Record/Merge accumulate exactly
// what the concurrent LatencyHistogram would, with the same percentiles.
#include <gtest/gtest.h>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace iotdb {
namespace obs {
namespace {

TEST(HistogramTest, BasicStats) {
  HistogramSnapshot h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_NEAR(h.Percentile(50), 50.5, 3.0);
  EXPECT_NEAR(h.Percentile(95), 95, 5.0);
}

TEST(HistogramTest, EmptyIsZero) {
  HistogramSnapshot h;
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
}

TEST(HistogramTest, MergeEqualsCombined) {
  HistogramSnapshot a, b, combined;
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(100000);
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a, combined);
}

TEST(HistogramTest, MergeTakesMinOnlyFromCountedValues) {
  // A window delta that counted nothing still carries the instrument's
  // cumulative min/max (see DeltaSince); its min must not leak in.
  HistogramSnapshot acc;
  acc.Record(500);
  HistogramSnapshot idle;
  idle.min = 7;
  idle.max = 900;
  acc.Merge(idle);
  EXPECT_EQ(acc.count, 1u);
  EXPECT_EQ(acc.min, 500u);
  EXPECT_EQ(acc.max, 900u);

  // An empty target takes the other side's min as is.
  HistogramSnapshot empty;
  empty.Merge(idle);
  EXPECT_EQ(empty.min, 7u);
}

TEST(HistogramTest, RecordMatchesLatencyHistogramSnapshot) {
  Random rng(11);
  HistogramSnapshot recorded;
  LatencyHistogram live;
  for (int i = 0; i < 4000; ++i) {
    // Log-uniform values spanning twelve decades.
    uint64_t v = rng.Uniform(uint64_t{1} << rng.Uniform(40));
    recorded.Record(v);
    live.Record(v);
  }
  EXPECT_EQ(recorded, live.TakeSnapshot());
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(recorded.Percentile(p), live.Percentile(p)) << "p" << p;
  }
}

}  // namespace
}  // namespace obs
}  // namespace iotdb
