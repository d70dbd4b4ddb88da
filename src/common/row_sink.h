#ifndef IOTDB_COMMON_ROW_SINK_H_
#define IOTDB_COMMON_ROW_SINK_H_

#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"

namespace iotdb {

/// Receives the rows of a range scan, in key order, where they lie: the
/// storage, cluster and YCSB scans hand each row to a sink instead of
/// copying it into a result vector, so a caller that folds rows into an
/// aggregate never materializes them.
class RowSink {
 public:
  virtual ~RowSink() = default;

  /// One row. The slices are valid only during the call; a sink that keeps
  /// a row copies it.
  virtual void Add(const Slice& key, const Slice& value) = 0;

  /// Drops every row added so far. A scan that restarts (a retry, or a
  /// failover to another replica) calls it before the new attempt, so a
  /// failed attempt's partial rows never reach the result.
  virtual void Clear() = 0;
};

/// Collects copies of the rows into a vector. Rows the vector held before
/// the sink was made are the caller's: Clear() keeps them.
class VectorRowSink final : public RowSink {
 public:
  explicit VectorRowSink(std::vector<std::pair<std::string, std::string>>* out)
      : out_(out), base_(out->size()) {}

  void Add(const Slice& key, const Slice& value) override {
    out_->emplace_back(key.ToString(), value.ToString());
  }
  void Clear() override { out_->resize(base_); }

 private:
  std::vector<std::pair<std::string, std::string>>* out_;
  const size_t base_;
};

}  // namespace iotdb

#endif  // IOTDB_COMMON_ROW_SINK_H_
