// Self-tests of the benchmark's own arithmetic: the percentile rule, span
// self time, failed-share accounting, and the dashboard workload's expected
// rows and aggregates. Plain checks, no framework: exits non-zero on the
// first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "iot/data_generator.h"
#include "iot/kvp.h"
#include "lib/dash_model.h"
#include "lib/spans.h"
#include "lib/stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace kitbench;  // NOLINT — test brevity

void TestPercentileRule() {
  // Nearest rank: p50 of 1..10 is 5, p90 is 9.
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  EXPECT(Percentile(v, 50) == 5);
  EXPECT(Percentile(v, 90) == 9);
  EXPECT(Percentile(v, 100) == 10);
  EXPECT(Percentile({}, 50) == 0);
  EXPECT(Median({3, 1, 2}) == 2);

  // The highest percentile with at least ten samples beyond it.
  EXPECT(TailPercentileFor(0) == 0);
  EXPECT(TailPercentileFor(19) == 0);   // p50 leaves 9 beyond
  EXPECT(TailPercentileFor(20) == 50);  // p50 leaves 10
  EXPECT(TailPercentileFor(99) == 50);  // p90 leaves 9
  EXPECT(TailPercentileFor(100) == 90);
  EXPECT(TailPercentileFor(999) == 90);  // p99 leaves 9
  EXPECT(TailPercentileFor(1000) == 99);
  EXPECT(TailPercentileFor(10000) == 99.9);
  EXPECT(TailPercentileFor(100000) == 99.99);
  EXPECT(SamplesBeyond(1000, 99) == 10);

  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  Summary s = Summarize(samples);
  EXPECT(s.count == 1000);
  EXPECT(s.p50 == 500);
  EXPECT(s.tail_pct == 99);
  EXPECT(s.tail == 990);
}

void TestSelfTime() {
  // root [0,100) with children [10,30) and [20,50) overlapping, and a
  // grandchild [12,18) under the first child.
  std::vector<Span> spans = {
      {"root", 1, 1, 0, 0, 100},
      {"a", 1, 2, 1, 10, 30},
      {"b", 1, 3, 1, 20, 50},
      {"c", 1, 4, 2, 12, 18},
  };
  std::vector<uint64_t> self = SelfTimesOf(spans);
  EXPECT(self[0] == 60);  // 100 minus the union [10,50)
  EXPECT(self[1] == 14);  // 20 minus 6
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 6);

  // A child reaching past its parent is clipped to the parent.
  std::vector<Span> clipped = {{"p", 1, 1, 0, 100, 200},
                               {"late", 1, 2, 1, 150, 400}};
  EXPECT(SelfTimesOf(clipped)[0] == 50);

  // Untraced spans share span id 0 and never become parents.
  std::vector<Span> untraced = {{"x", 0, 0, 0, 0, 10},
                                {"y", 0, 0, 0, 2, 4}};
  std::vector<uint64_t> u = SelfTimesOf(untraced);
  EXPECT(u[0] == 10 && u[1] == 2);

  auto by_name = SelfTimeByName(spans);
  EXPECT(by_name["root"].count == 1);
  EXPECT(by_name["a"].total_ns == 20);
  EXPECT(by_name["a"].self_ns == 14);

  // Sequential children: self times plus the residual add up exactly.
  std::vector<Span> seq = {{"op", 7, 10, 0, 0, 1000},
                           {"gen", 7, 11, 10, 0, 300},
                           {"put", 7, 12, 10, 300, 900}};
  std::vector<uint64_t> st = SelfTimesOf(seq);
  EXPECT(st[0] + st[1] + st[2] == 1000);
  EXPECT(st[0] == 100);
  const std::string table = LayerTable(seq);
  EXPECT(table.find("unattributed") != std::string::npos);
  EXPECT(table.find("10.00%") != std::string::npos);  // 100 of 1000 ns
  EXPECT(table.find("60.00%") != std::string::npos);  // put: 600 of 1000

  // A recorded log nests spans by id and drops past its capacity.
  SpanLog log(true, 2);
  const uint64_t op = SpanLog::NextId();
  {
    ScopedSpan outer(&log, "outer", op, 0);
    ScopedSpan inner(&log, "inner", op, outer.id());
  }
  { ScopedSpan third(&log, "third", op, 0); }
  EXPECT(log.spans().size() == 2);
  EXPECT(log.dropped() == 1);
  EXPECT(log.spans()[0].parent_id == log.spans()[1].span_id);
  SpanLog off(false);
  { ScopedSpan nothing(&off, "x", 1, 0); }
  EXPECT(off.spans().empty() && off.dropped() == 0);
}

void TestFailedShare() {
  OpCount ops;
  EXPECT(ops.ErrorRate() == 1.0);  // nothing attempted proves nothing
  EXPECT(!ops.AllOk());
  for (int i = 0; i < 8; ++i) ops.Record(true);
  ops.Record(false);
  ops.Record(false);
  EXPECT(ops.attempted == 10 && ops.failed == 2);
  EXPECT(ops.ErrorRate() == 0.2);
  EXPECT(!ops.AllOk());
  OpCount clean;
  clean.Record(true);
  EXPECT(clean.AllOk() && clean.ErrorRate() == 0);
  clean.Merge(ops);
  EXPECT(clean.attempted == 11 && clean.failed == 2);
}

void TestDashExpectations() {
  // A small load: 2000 readings = 10 per sensor, 50 ms apart per sensor.
  DashShape shape;
  shape.readings_per_substation = 2000;
  shape.window_micros = 200'000;  // 4 periods
  EXPECT(shape.SensorPeriodMicros() == 50'000);
  EXPECT(shape.RowsPerWindow() == 4);
  EXPECT(shape.RowsPerQuery() == 8);
  EXPECT(shape.EarliestPastStart() < shape.LatestPastStart());

  DashModel model;
  iotdb::ManualClock clock(shape.start_micros);
  iotdb::iot::DataGenerator gen("sub0001", shape.readings_per_substation, 7,
                                &clock);
  std::vector<iotdb::iot::Reading> readings;
  while (gen.HasNext()) {
    clock.Advance(shape.step_micros);
    iotdb::iot::Kvp kvp = gen.Next();
    auto r = iotdb::iot::KvpCodec::Decode(iotdb::Slice(kvp.key),
                                          iotdb::Slice(kvp.value));
    EXPECT(r.ok());
    readings.push_back(r.ValueOrDie());
    model.Add(r.ValueOrDie().substation_key, r.ValueOrDie().sensor_key,
              r.ValueOrDie().timestamp_micros, r.ValueOrDie().value);
  }
  EXPECT(model.readings() == 2000);
  EXPECT(readings.front().timestamp_micros == shape.FirstMicros());
  EXPECT(readings.back().timestamp_micros == shape.LastMicros());

  // Every query the workload can draw reads exactly RowsPerQuery rows,
  // including windows at both ends of the allowed range.
  const auto& catalog = iotdb::iot::SensorCatalog::Default();
  iotdb::Random rng(11);
  for (int i = 0; i < 500; ++i) {
    iotdb::iot::Query q = MakeDashQuery(shape, {"sub0001"}, catalog, &rng);
    EXPECT(q.past_start_micros >= shape.EarliestPastStart());
    EXPECT(q.past_start_micros <= shape.LatestPastStart());
    EXPECT(q.past_end_micros <= q.recent_start_micros);
    EXPECT(model.Expected(q).rows_read == shape.RowsPerQuery());
    for (uint64_t start : {shape.EarliestPastStart(), shape.LatestPastStart()}) {
      q.past_start_micros = start;
      q.past_end_micros = start + shape.window_micros;
      EXPECT(model.Expected(q).rows_read == shape.RowsPerQuery());
    }
  }

  // The aggregate equals one recomputed by hand from the raw readings.
  iotdb::iot::Query q;
  q.substation_key = "sub0001";
  q.sensor_key = catalog.sensor(3).key;
  q.recent_end_micros = shape.LastMicros() + 1;
  q.recent_start_micros = q.recent_end_micros - shape.window_micros;
  q.past_start_micros = shape.EarliestPastStart();
  q.past_end_micros = q.past_start_micros + shape.window_micros;
  double sum = 0;
  double max = -1e300;
  uint64_t count = 0;
  for (const auto& r : readings) {
    if (r.sensor_key != q.sensor_key) continue;
    if (r.timestamp_micros >= q.past_start_micros &&
        r.timestamp_micros < q.past_end_micros) {
      sum += r.value;
      max = std::max(max, r.value);
      ++count;
    }
  }
  q.type = iotdb::iot::QueryType::kAvgReading;
  iotdb::iot::QueryResult avg = model.Expected(q);
  EXPECT(count == shape.RowsPerWindow());
  EXPECT(avg.past.count == count);
  EXPECT(avg.past.sum == sum);
  EXPECT(avg.past_value == sum / count);
  q.type = iotdb::iot::QueryType::kMaxReading;
  EXPECT(model.Expected(q).past_value == max);
  q.type = iotdb::iot::QueryType::kReadingCount;
  EXPECT(model.Expected(q).recent_value == shape.RowsPerWindow());

  // SameAnswer rejects a single missing row or a perturbed aggregate.
  iotdb::iot::QueryResult want = model.Expected(q);
  iotdb::iot::QueryResult got = want;
  EXPECT(SameAnswer(got, want));
  got.rows_read--;
  got.past.count--;
  EXPECT(!SameAnswer(got, want));
  got = want;
  got.recent.sum += 1e-9;
  EXPECT(!SameAnswer(got, want));
}

void TestHistogramMerge() {
  iotdb::obs::MetricsSnapshot a;
  iotdb::obs::MetricsSnapshot b;
  a.counters["c"] = 2;
  b.counters["c"] = 3;
  a.histograms["h"] = {2, 20, 5, 15, {{5, 1}, {15, 1}}};
  b.histograms["h"] = {1, 9, 9, 9, {{9, 1}}};
  iotdb::obs::MetricsSnapshot m = MergeSnapshots(a, b);
  EXPECT(CounterOf(m, "c") == 5);
  EXPECT(CounterOf(m, "missing") == 0);
  EXPECT(HistCount(m, "h") == 3);
  EXPECT(m.histograms["h"].buckets.size() == 3);
  EXPECT(m.histograms["h"].min == 5 && m.histograms["h"].max == 15);
  EXPECT(HistPercentile(m, "missing", 50) == 0);
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestFailedShare();
  TestDashExpectations();
  TestHistogramMerge();
  if (failures != 0) {
    fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  printf("kitbench self-tests passed\n");
  return 0;
}
