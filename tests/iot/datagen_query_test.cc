// DataGenerator and query template tests, including end-to-end execution
// against a real KVStore.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/clock.h"
#include "iot/data_generator.h"
#include "iot/query.h"
#include "storage/env.h"
#include "storage/kvstore.h"
#include "ycsb/bindings.h"

namespace iotdb {
namespace iot {
namespace {

TEST(DataGeneratorTest, GeneratesRequestedCount) {
  ManualClock clock(1000000);
  DataGenerator gen("sub1", 450, 7, &clock);
  uint64_t n = 0;
  while (gen.HasNext()) {
    gen.Next();
    ++n;
  }
  EXPECT_EQ(n, 450u);
  EXPECT_EQ(gen.generated(), 450u);
}

TEST(DataGeneratorTest, RoundRobinsAcrossAllSensors) {
  ManualClock clock(0);
  DataGenerator gen("sub1", 400, 7, &clock);
  std::set<std::string> first_sweep;
  for (int i = 0; i < 200; ++i) {
    first_sweep.insert(gen.NextReading().sensor_key);
  }
  EXPECT_EQ(first_sweep.size(), 200u);  // every sensor exactly once
}

TEST(DataGeneratorTest, TimestampsAreStrictlyIncreasing) {
  ManualClock clock(500);  // frozen clock: collisions force +1 bumps
  DataGenerator gen("sub1", 1000, 7, &clock);
  uint64_t last = 0;
  while (gen.HasNext()) {
    Reading r = gen.NextReading();
    EXPECT_GT(r.timestamp_micros, last);
    last = r.timestamp_micros;
  }
}

TEST(DataGeneratorTest, ValuesWithinSensorRange) {
  ManualClock clock(0);
  const SensorCatalog& catalog = SensorCatalog::Default();
  DataGenerator gen("sub1", 600, 7, &clock);
  for (int i = 0; i < 600; ++i) {
    Reading r = gen.NextReading();
    int idx = catalog.IndexOf(r.sensor_key);
    ASSERT_GE(idx, 0);
    EXPECT_GE(r.value, catalog.sensor(idx).min_value);
    EXPECT_LE(r.value, catalog.sensor(idx).max_value);
    EXPECT_EQ(r.unit, catalog.sensor(idx).unit);
  }
}

TEST(DataGeneratorTest, DeterministicForSeed) {
  ManualClock c1(0), c2(0);
  DataGenerator a("sub1", 100, 99, &c1);
  DataGenerator b("sub1", 100, 99, &c2);
  for (int i = 0; i < 100; ++i) {
    Kvp ka = a.Next();
    Kvp kb = b.Next();
    EXPECT_EQ(ka.key, kb.key);
    EXPECT_EQ(ka.value, kb.value);
  }
}

TEST(QueryGeneratorTest, WindowsMatchSpec) {
  ManualClock clock(3600ull * 1000000);  // t = 1 hour
  QueryGenerator gen("sub1", 7, &clock);
  for (int i = 0; i < 200; ++i) {
    Query q = gen.Next();
    // Recent window is the last 5 seconds.
    EXPECT_EQ(q.recent_end_micros, clock.NowMicros());
    EXPECT_EQ(q.recent_end_micros - q.recent_start_micros, 5000000u);
    // Past window is 5 s long, inside the previous 1800 s, and does not
    // overlap the recent window.
    EXPECT_EQ(q.past_end_micros - q.past_start_micros, 5000000u);
    EXPECT_GE(q.past_start_micros,
              clock.NowMicros() - 1800ull * 1000000);
    EXPECT_LE(q.past_end_micros, q.recent_start_micros);
    EXPECT_EQ(q.substation_key, "sub1");
    EXPECT_GE(SensorCatalog::Default().IndexOf(q.sensor_key), 0);
  }
}

TEST(QueryGeneratorTest, CoversAllFourTemplates) {
  ManualClock clock(1ull << 40);
  QueryGenerator gen("sub1", 3, &clock);
  std::set<QueryType> seen;
  for (int i = 0; i < 100; ++i) seen.insert(gen.Next().type);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(QueryTypeTest, Names) {
  EXPECT_STREQ(QueryTypeName(QueryType::kMaxReading), "MAX_READING");
  EXPECT_STREQ(QueryTypeName(QueryType::kMinReading), "MIN_READING");
  EXPECT_STREQ(QueryTypeName(QueryType::kAvgReading), "AVG_READING");
  EXPECT_STREQ(QueryTypeName(QueryType::kReadingCount), "READING_COUNT");
}

class QueryExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = storage::NewMemEnv();
    storage::Options options;
    options.env = env_.get();
    store_ = storage::KVStore::Open(options, "/qx").MoveValueUnsafe();
    db_ = std::make_unique<ycsb::KVStoreDB>(store_.get());
  }

  // Inserts `n` readings for one sensor, one per millisecond ending at
  // `end_micros`, with values 1..n (newest = n).
  void InsertSeries(const std::string& sensor, uint64_t end_micros,
                    int n) {
    for (int i = 1; i <= n; ++i) {
      Reading r;
      r.substation_key = "sub1";
      r.sensor_key = sensor;
      r.timestamp_micros = end_micros - (n - i) * 1000;
      r.value = i;
      r.unit = "unit";
      Kvp kvp = KvpCodec::Encode(r, i);
      ASSERT_TRUE(db_->Insert(kvp.key, kvp.value).ok());
    }
  }

  std::unique_ptr<storage::Env> env_;
  std::unique_ptr<storage::KVStore> store_;
  std::unique_ptr<ycsb::DB> db_;
};

TEST_F(QueryExecutionTest, AggregatesBothWindows) {
  const uint64_t now = 10000ull * 1000000;
  // Recent window [now-5s, now): values 101..200 (100 readings at 1/ms
  // would span 0.1s; use 1 reading per 50ms => 100 readings span 5s).
  for (int i = 0; i < 100; ++i) {
    Reading r;
    r.substation_key = "sub1";
    r.sensor_key = "pmu_freq_000";
    r.timestamp_micros = now - 5000000 + i * 50000;
    r.value = 101 + i;
    r.unit = "hertz";
    Kvp kvp = KvpCodec::Encode(r, i);
    ASSERT_TRUE(db_->Insert(kvp.key, kvp.value).ok());
  }
  // Past window [now-100s, now-95s): values 1..50.
  for (int i = 0; i < 50; ++i) {
    Reading r;
    r.substation_key = "sub1";
    r.sensor_key = "pmu_freq_000";
    r.timestamp_micros = now - 100000000 + i * 100000;
    r.value = 1 + i;
    r.unit = "hertz";
    Kvp kvp = KvpCodec::Encode(r, 1000 + i);
    ASSERT_TRUE(db_->Insert(kvp.key, kvp.value).ok());
  }

  Query query;
  query.type = QueryType::kMaxReading;
  query.substation_key = "sub1";
  query.sensor_key = "pmu_freq_000";
  query.recent_start_micros = now - 5000000;
  query.recent_end_micros = now;
  query.past_start_micros = now - 100000000;
  query.past_end_micros = now - 95000000;

  QueryExecutor executor(db_.get());
  auto check_all_templates = [&]() {
    query.type = QueryType::kMaxReading;
    auto result = executor.Execute(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const QueryResult& qr = result.ValueOrDie();
    EXPECT_EQ(qr.recent.count, 100u);
    EXPECT_EQ(qr.past.count, 50u);
    EXPECT_EQ(qr.rows_read, 150u);
    EXPECT_DOUBLE_EQ(qr.recent_value, 200.0);  // max of recent
    EXPECT_DOUBLE_EQ(qr.past_value, 50.0);     // max of past

    // The other templates on the same windows.
    query.type = QueryType::kMinReading;
    auto min_result = executor.Execute(query).ValueOrDie();
    EXPECT_DOUBLE_EQ(min_result.recent_value, 101.0);
    EXPECT_DOUBLE_EQ(min_result.past_value, 1.0);

    query.type = QueryType::kAvgReading;
    auto avg_result = executor.Execute(query).ValueOrDie();
    EXPECT_NEAR(avg_result.recent_value, 150.5, 1e-9);
    EXPECT_NEAR(avg_result.past_value, 25.5, 1e-9);

    query.type = QueryType::kReadingCount;
    auto count_result = executor.Execute(query).ValueOrDie();
    EXPECT_DOUBLE_EQ(count_result.recent_value, 100.0);
    EXPECT_DOUBLE_EQ(count_result.past_value, 50.0);
  };
  {
    SCOPED_TRACE("rows in the memtable");
    check_all_templates();
  }
  // From a table, each row the executor folds lies in a data block that is
  // freed once the scan moves past it.
  ASSERT_TRUE(store_->FlushMemTable().ok());
  {
    SCOPED_TRACE("rows in a table");
    check_all_templates();
  }
}

// A binding that overrides only the vector Scan, as a decorator that times
// scans does: the executor's sink scan then goes through DB's default,
// which materializes the rows first.
class VectorOnlyDB final : public ycsb::DB {
 public:
  explicit VectorOnlyDB(ycsb::DB* inner) : inner_(inner) {}

  Status Insert(const Slice& key, const Slice& value) override {
    return inner_->Insert(key, value);
  }
  Result<std::string> Read(const Slice& key) override {
    return inner_->Read(key);
  }
  Status Scan(const Slice& shard_key, const Slice& start,
              const Slice& end_exclusive, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out)
      override {
    vector_scans++;
    return inner_->Scan(shard_key, start, end_exclusive, limit, out);
  }

  int vector_scans = 0;

 private:
  ycsb::DB* inner_;
};

TEST_F(QueryExecutionTest, VectorOnlyBindingGivesTheSameAnswer) {
  const uint64_t now = 7000ull * 1000000;
  InsertSeries("pmu_freq_000", now, 300);
  ASSERT_TRUE(store_->FlushMemTable().ok());
  // New versions of 40 of those rows, in the memtable: the scans merge both.
  InsertSeries("pmu_freq_000", now - 100000, 40);

  VectorOnlyDB vector_only(db_.get());
  QueryExecutor direct(db_.get());
  QueryExecutor materialized(&vector_only);
  for (QueryType type : {QueryType::kMaxReading, QueryType::kMinReading,
                         QueryType::kAvgReading, QueryType::kReadingCount}) {
    Query query;
    query.type = type;
    query.substation_key = "sub1";
    query.sensor_key = "pmu_freq_000";
    query.recent_start_micros = now - 100000;
    query.recent_end_micros = now + 1;
    query.past_start_micros = now - 200000;
    query.past_end_micros = now - 90000;
    auto a = direct.Execute(query);
    auto b = materialized.Execute(query);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    const QueryResult& x = a.ValueOrDie();
    const QueryResult& y = b.ValueOrDie();
    EXPECT_GT(x.recent.count, 0u);
    EXPECT_GT(x.past.count, 0u);
    EXPECT_EQ(x.rows_read, y.rows_read);
    for (auto [w, v] : {std::make_pair(&x.recent, &y.recent),
                        std::make_pair(&x.past, &y.past)}) {
      EXPECT_EQ(w->count, v->count);
      EXPECT_EQ(w->min, v->min);
      EXPECT_EQ(w->max, v->max);
      EXPECT_EQ(w->sum, v->sum);
    }
    EXPECT_EQ(x.recent_value, y.recent_value);
    EXPECT_EQ(x.past_value, y.past_value);
  }
  EXPECT_EQ(vector_only.vector_scans, 8);  // two windows per query
}

TEST_F(QueryExecutionTest, MalformedValueFailsTheQuery) {
  const uint64_t now = 6000ull * 1000000;
  InsertSeries("ltc_gas_000", now, 20);
  const std::string key =
      KvpCodec::EncodeKey("sub1", "ltc_gas_000", now - 3500);
  ASSERT_TRUE(db_->Insert(key, "not-a-number|unit|pad").ok());
  // The same on another sensor, in a value long enough that the flush below
  // separates it: its head holds the separator, so the executor takes the
  // head and the Corruption comes from it, with no record read.
  InsertSeries("ltc_gas_001", now, 20);
  std::string separated = "not-a-number|unit|";
  separated.resize(1000, 'p');
  ASSERT_TRUE(db_->Insert(KvpCodec::EncodeKey("sub1", "ltc_gas_001",
                                              now - 3500),
                          separated)
                  .ok());

  Query query;
  query.type = QueryType::kAvgReading;
  query.substation_key = "sub1";
  query.recent_start_micros = now - 5000000;
  query.recent_end_micros = now + 1;
  query.past_start_micros = 0;
  query.past_end_micros = 1;

  QueryExecutor executor(db_.get());
  auto expect_corruption = [&](const char* sensor) {
    query.sensor_key = sensor;
    auto result = executor.Execute(query);
    EXPECT_TRUE(result.status().IsCorruption())
        << sensor << ": " << result.status().ToString();
  };
  expect_corruption("ltc_gas_000");
  expect_corruption("ltc_gas_001");

  ASSERT_TRUE(store_->FlushMemTable().ok());
  const uint64_t derefs = store_->GetStats().vlog_dereferences;
  expect_corruption("ltc_gas_000");
  expect_corruption("ltc_gas_001");
  EXPECT_EQ(store_->GetStats().vlog_dereferences, derefs);
}

// A reading whose text is longer than a separated value's 16-byte head
// (1e20 prints as 26 characters) has no separator in its head: the
// executor declines the head and folds the whole value, read from the
// value log. Only those rows cost a dereference, and the aggregate stays
// exact.
TEST_F(QueryExecutionTest, ReadingLongerThanHeadFallsBackOnTheValue) {
  const uint64_t now = 8000ull * 1000000;
  WindowAggregate want;
  int huge = 0;
  for (int i = 0; i < 50; ++i) {
    Reading r;
    r.substation_key = "sub1";
    r.sensor_key = "pmu_freq_000";
    r.timestamp_micros = now - 5000000 + i * 100000;
    r.value = i % 10 == 3 ? (i + 1) * 1e20 : i - 20.25;
    r.unit = "hertz";
    if (i % 10 == 3) huge++;
    Kvp kvp = KvpCodec::Encode(r, i);
    ASSERT_TRUE(db_->Insert(kvp.key, kvp.value).ok());
    want.min = i == 0 ? r.value : std::min(want.min, r.value);
    want.max = i == 0 ? r.value : std::max(want.max, r.value);
    want.sum += r.value;
    want.count++;
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());

  Query query;
  query.substation_key = "sub1";
  query.sensor_key = "pmu_freq_000";
  query.recent_start_micros = now - 5000000;
  query.recent_end_micros = now;
  query.past_start_micros = 0;
  query.past_end_micros = 1;
  QueryExecutor executor(db_.get());
  for (QueryType type : {QueryType::kMaxReading, QueryType::kMinReading,
                         QueryType::kAvgReading, QueryType::kReadingCount}) {
    query.type = type;
    const uint64_t derefs = store_->GetStats().vlog_dereferences;
    auto result = executor.Execute(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(store_->GetStats().vlog_dereferences - derefs,
              static_cast<uint64_t>(huge));
    const WindowAggregate& got = result.ValueOrDie().recent;
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.sum, want.sum);
  }
  EXPECT_EQ(want.max, 44e20);
}

TEST_F(QueryExecutionTest, EmptyWindowsAreZero) {
  // Warmup situation: no data in the past window at all.
  Query query;
  query.type = QueryType::kReadingCount;
  query.substation_key = "sub1";
  query.sensor_key = "pmu_freq_000";
  query.recent_start_micros = 0;
  query.recent_end_micros = 5000000;
  query.past_start_micros = 10000000;
  query.past_end_micros = 15000000;
  QueryExecutor executor(db_.get());
  auto result = executor.Execute(query).ValueOrDie();
  EXPECT_EQ(result.rows_read, 0u);
  EXPECT_DOUBLE_EQ(result.recent_value, 0.0);
}

TEST_F(QueryExecutionTest, SelectionIsolatesSensorAndSubstation) {
  const uint64_t now = 5000ull * 1000000;
  InsertSeries("ltc_gas_000", now, 10);
  InsertSeries("ltc_gas_001", now, 10);  // neighbour sensor, same window

  Query query;
  query.type = QueryType::kReadingCount;
  query.substation_key = "sub1";
  query.sensor_key = "ltc_gas_000";
  query.recent_start_micros = now - 5000000;
  query.recent_end_micros = now + 1;  // include the ts == now reading
  query.past_start_micros = 0;
  query.past_end_micros = 1;

  QueryExecutor executor(db_.get());
  auto result = executor.Execute(query).ValueOrDie();
  EXPECT_EQ(result.recent.count, 10u);  // neighbour not counted
}

}  // namespace
}  // namespace iot
}  // namespace iotdb
