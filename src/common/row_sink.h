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

  /// Offers a row whose value the store keeps apart from its table (a
  /// separated value) by the value's head: its first bytes, at least one
  /// and at most 16 (storage::vlog::kValueHeadSize), all of them for a
  /// shorter value. The head lies in a checksum-verified table block.
  /// Returning true takes the row: Add is not called for it, and it counts
  /// as a row for the scan's limit and row counters and for Clear(), like
  /// one handed to Add. Returning false makes the scan read and verify the
  /// whole value and call Add with it. A sink that needs whole values keeps
  /// this default. The slices are valid only during the call.
  virtual bool AddHead(const Slice& /*key*/, const Slice& /*head*/) {
    return false;
  }

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
