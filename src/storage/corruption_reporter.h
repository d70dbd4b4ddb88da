#ifndef IOTDB_STORAGE_CORRUPTION_REPORTER_H_
#define IOTDB_STORAGE_CORRUPTION_REPORTER_H_

#include <string>

#include "common/status.h"

namespace iotdb {
namespace storage {

/// Callback surface through which a store reports detected corruption to its
/// embedder (the cluster layer uses it to drive replica repair). Methods may
/// be invoked from background threads *with internal store locks held*:
/// implementations must only record or enqueue — never call back into the
/// store, and never block.
class CorruptionReporter {
 public:
  virtual ~CorruptionReporter() = default;

  /// A file failed checksum verification and was quarantined: renamed to
  /// `<path>.quarantined` and dropped from the live version set, so it will
  /// never serve another read. `cause` is the verification failure.
  virtual void OnQuarantine(const std::string& path, const Status& cause) = 0;
};

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_CORRUPTION_REPORTER_H_
