#include "ycsb/db.h"

namespace iotdb {
namespace ycsb {

Status DB::InsertBatch(
    const std::vector<std::pair<std::string, std::string>>& kvps) {
  for (const auto& [key, value] : kvps) {
    IOTDB_RETURN_NOT_OK(Insert(key, value));
  }
  return Status::OK();
}

Status DB::Scan(const Slice& shard_key, const Slice& start,
                const Slice& end_exclusive, size_t limit, RowSink* sink) {
  std::vector<std::pair<std::string, std::string>> rows;
  IOTDB_RETURN_NOT_OK(Scan(shard_key, start, end_exclusive, limit, &rows));
  for (const auto& [key, value] : rows) sink->Add(key, value);
  return Status::OK();
}

}  // namespace ycsb
}  // namespace iotdb
