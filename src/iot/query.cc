#include "iot/query.h"

#include <algorithm>
#include <cstring>

#include "common/row_sink.h"

namespace iotdb {
namespace iot {

const char* QueryTypeName(QueryType type) {
  switch (type) {
    case QueryType::kMaxReading:
      return "MAX_READING";
    case QueryType::kMinReading:
      return "MIN_READING";
    case QueryType::kAvgReading:
      return "AVG_READING";
    case QueryType::kReadingCount:
      return "READING_COUNT";
  }
  return "?";
}

QueryGenerator::QueryGenerator(std::string substation_key, uint64_t seed,
                               Clock* clock, const SensorCatalog* catalog)
    : substation_key_(std::move(substation_key)),
      rng_(seed ^ 0x9dd1f9ab01234567ull),
      clock_(clock != nullptr ? clock : Clock::Real()),
      catalog_(catalog) {}

Query QueryGenerator::Next() {
  Query query;
  query.type = static_cast<QueryType>(rng_.Uniform(4));
  query.substation_key = substation_key_;
  query.sensor_key = catalog_->sensor(rng_.Uniform(catalog_->size())).key;

  const uint64_t window =
      static_cast<uint64_t>(Rules::kQueryWindowSeconds * 1e6);
  const uint64_t history =
      static_cast<uint64_t>(Rules::kQueryHistorySeconds * 1e6);

  uint64_t now = clock_->NowMicros();
  query.recent_end_micros = now;
  query.recent_start_micros = now > window ? now - window : 0;

  // The historic window starts uniformly in [now-1800s, now-5s); clipped
  // when the run is young (warmup behaviour the paper calls out: such
  // queries may return no rows, which is acceptable because warmup is not
  // timed).
  uint64_t horizon_start = now > history ? now - history : 0;
  uint64_t latest_start =
      query.recent_start_micros > window
          ? query.recent_start_micros - window
          : 0;
  uint64_t span = latest_start > horizon_start ? latest_start - horizon_start
                                               : 0;
  query.past_start_micros =
      span == 0 ? horizon_start : horizon_start + rng_.Uniform(span);
  query.past_end_micros = query.past_start_micros + window;
  return query;
}

namespace {

/// Folds each scanned row's sensor value into a window aggregate where the
/// row lies (projection: the value only). The first malformed value stops
/// the fold and is the window's status.
class AggregateSink final : public RowSink {
 public:
  explicit AggregateSink(WindowAggregate* agg) : agg_(agg) { Clear(); }

  /// The sensor value is the field before the first separator, so a head
  /// that holds the separator holds the whole field: it folds exactly as
  /// the whole value would. A longer reading falls back on the value.
  bool AddHead(const Slice& key, const Slice& head) override {
    if (memchr(head.data(), KvpCodec::kValueSeparator, head.size()) ==
        nullptr) {
      return false;
    }
    Add(key, head);
    return true;
  }

  void Add(const Slice& /*key*/, const Slice& value) override {
    if (!status_.ok()) return;
    auto v = KvpCodec::DecodeSensorValue(value);
    if (!v.ok()) {
      status_ = v.status();
      return;
    }
    const double reading = v.ValueOrDie();
    if (agg_->count == 0) {
      agg_->min = agg_->max = reading;
    } else {
      agg_->min = std::min(agg_->min, reading);
      agg_->max = std::max(agg_->max, reading);
    }
    agg_->sum += reading;
    agg_->count++;
  }

  void Clear() override {
    *agg_ = WindowAggregate();
    status_ = Status::OK();
  }

  const Status& status() const { return status_; }

 private:
  WindowAggregate* agg_;
  Status status_;
};

}  // namespace

Status QueryExecutor::ScanWindow(const Query& query, uint64_t start_micros,
                                 uint64_t end_micros, WindowAggregate* agg) {
  std::string start_key = KvpCodec::EncodeKey(query.substation_key,
                                              query.sensor_key, start_micros);
  std::string end_key = KvpCodec::EncodeKey(query.substation_key,
                                            query.sensor_key, end_micros);
  const Slice shard_key = KvpCodec::ShardPrefixOf(Slice(start_key));

  AggregateSink sink(agg);
  IOTDB_RETURN_NOT_OK(
      db_->Scan(shard_key, Slice(start_key), Slice(end_key), 0, &sink));
  return sink.status();
}

Result<QueryResult> QueryExecutor::Execute(const Query& query) {
  QueryResult result;
  result.query = query;
  IOTDB_RETURN_NOT_OK(ScanWindow(query, query.recent_start_micros,
                                 query.recent_end_micros, &result.recent));
  IOTDB_RETURN_NOT_OK(ScanWindow(query, query.past_start_micros,
                                 query.past_end_micros, &result.past));
  result.rows_read = result.recent.count + result.past.count;
  switch (query.type) {
    case QueryType::kMaxReading:
      result.recent_value = result.recent.max;
      result.past_value = result.past.max;
      break;
    case QueryType::kMinReading:
      result.recent_value = result.recent.min;
      result.past_value = result.past.min;
      break;
    case QueryType::kAvgReading:
      result.recent_value = result.recent.Avg();
      result.past_value = result.past.Avg();
      break;
    case QueryType::kReadingCount:
      result.recent_value = static_cast<double>(result.recent.count);
      result.past_value = static_cast<double>(result.past.count);
      break;
  }
  return result;
}

}  // namespace iot
}  // namespace iotdb
