#include "lib/dash_model.h"

#include <algorithm>

namespace kitbench {

using iotdb::iot::Query;
using iotdb::iot::QueryResult;
using iotdb::iot::QueryType;
using iotdb::iot::WindowAggregate;

Query MakeDashQuery(const DashShape& shape,
                    const std::vector<std::string>& substations,
                    const iotdb::iot::SensorCatalog& catalog,
                    iotdb::Random* rng) {
  Query q;
  q.type = static_cast<QueryType>(rng->Uniform(4));
  q.substation_key = substations[rng->Uniform(substations.size())];
  q.sensor_key = catalog.sensor(rng->Uniform(catalog.size())).key;
  q.recent_end_micros = shape.LastMicros() + 1;
  q.recent_start_micros = q.recent_end_micros - shape.window_micros;
  const uint64_t lo = shape.EarliestPastStart();
  const uint64_t hi = shape.LatestPastStart();
  q.past_start_micros = lo + rng->Uniform(hi - lo + 1);
  q.past_end_micros = q.past_start_micros + shape.window_micros;
  return q;
}

void DashModel::Add(const std::string& substation, const std::string& sensor,
                    uint64_t timestamp_micros, double value) {
  series_[{substation, sensor}].emplace_back(timestamp_micros, value);
  ++readings_;
}

WindowAggregate DashModel::Window(const std::string& substation,
                                  const std::string& sensor,
                                  uint64_t start_micros,
                                  uint64_t end_micros) const {
  WindowAggregate agg;
  auto it = series_.find({substation, sensor});
  if (it == series_.end()) return agg;
  const Series& s = it->second;
  auto first = std::lower_bound(
      s.begin(), s.end(), start_micros,
      [](const std::pair<uint64_t, double>& r, uint64_t t) {
        return r.first < t;
      });
  for (auto r = first; r != s.end() && r->first < end_micros; ++r) {
    if (agg.count == 0) {
      agg.min = agg.max = r->second;
    } else {
      agg.min = std::min(agg.min, r->second);
      agg.max = std::max(agg.max, r->second);
    }
    agg.sum += r->second;
    agg.count++;
  }
  return agg;
}

QueryResult DashModel::Expected(const Query& query) const {
  QueryResult want;
  want.query = query;
  want.recent = Window(query.substation_key, query.sensor_key,
                       query.recent_start_micros, query.recent_end_micros);
  want.past = Window(query.substation_key, query.sensor_key,
                     query.past_start_micros, query.past_end_micros);
  want.rows_read = want.recent.count + want.past.count;
  switch (query.type) {
    case QueryType::kMaxReading:
      want.recent_value = want.recent.max;
      want.past_value = want.past.max;
      break;
    case QueryType::kMinReading:
      want.recent_value = want.recent.min;
      want.past_value = want.past.min;
      break;
    case QueryType::kAvgReading:
      want.recent_value = want.recent.Avg();
      want.past_value = want.past.Avg();
      break;
    case QueryType::kReadingCount:
      want.recent_value = static_cast<double>(want.recent.count);
      want.past_value = static_cast<double>(want.past.count);
      break;
  }
  return want;
}

bool SameAnswer(const QueryResult& got, const QueryResult& want) {
  return got.rows_read == want.rows_read &&
         got.recent.count == want.recent.count &&
         got.past.count == want.past.count &&
         got.recent.min == want.recent.min &&
         got.recent.max == want.recent.max &&
         got.past.min == want.past.min && got.past.max == want.past.max &&
         got.recent.sum == want.recent.sum && got.past.sum == want.past.sum &&
         got.recent_value == want.recent_value &&
         got.past_value == want.past_value;
}

}  // namespace kitbench
