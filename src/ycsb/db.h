#ifndef IOTDB_YCSB_DB_H_
#define IOTDB_YCSB_DB_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/row_sink.h"
#include "common/slice.h"
#include "common/status.h"

namespace iotdb {
namespace ycsb {

/// YCSB's database interface layer: the seam between the TPCx-IoT workload
/// and the system under test. The kit drives a gateway cluster binding;
/// tests can drive a single KVStore.
class DB {
 public:
  virtual ~DB() = default;

  virtual Status Insert(const Slice& key, const Slice& value) = 0;

  /// Batch insert; default loops over Insert. Bindings with a client write
  /// buffer override this (the HBase path TPCx-IoT exercises).
  virtual Status InsertBatch(
      const std::vector<std::pair<std::string, std::string>>& kvps);

  virtual Result<std::string> Read(const Slice& key) = 0;

  /// Range scan: appends the rows in [start, end_exclusive) to `out`, at
  /// most `limit` when limit > 0. `shard_key` routes sharded bindings;
  /// unsharded bindings may ignore it.
  virtual Status Scan(const Slice& shard_key, const Slice& start,
                      const Slice& end_exclusive, size_t limit,
                      std::vector<std::pair<std::string, std::string>>* out)
      = 0;

  /// The same scan, handing each row to `sink` (see RowSink). The default
  /// materializes the rows through the vector Scan above, so a binding that
  /// overrides only that one still serves it; bindings that can pass rows
  /// straight through override this one.
  virtual Status Scan(const Slice& shard_key, const Slice& start,
                      const Slice& end_exclusive, size_t limit,
                      RowSink* sink);
};

}  // namespace ycsb
}  // namespace iotdb

#endif  // IOTDB_YCSB_DB_H_
