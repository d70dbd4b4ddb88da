#ifndef IOTDB_STORAGE_VLOG_GC_H_
#define IOTDB_STORAGE_VLOG_GC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/env.h"
#include "storage/vlog_format.h"

namespace iotdb {
namespace storage {
namespace vlog {

/// Version-set bookkeeping for one vlog file a flush installed. Persisted
/// in the manifest as `vlog <number> <size> <dead_bytes>` so the head/tail
/// state and scrub limits survive a restart. `dead_bytes` is the
/// compaction-estimated garbage in the file: every time a compaction drops
/// a shadowed or aged-out value pointer, the pointed-to record's size is
/// credited here; background GC starts on the tail file once its dead ratio
/// crosses Options::vlog_gc_dead_ratio.
struct VlogFileInfo {
  uint64_t number = 0;
  uint64_t size = 0;        // records occupy [0, size)
  uint64_t dead_bytes = 0;  // estimate; reset to 0 on crash (re-learned)
};

/// One record scanned out of a tail file during a GC pass. The value is an
/// owned copy: the re-put happens after the scan, under the store mutex.
struct GcRecord {
  std::string key;
  std::string value;
  ValuePointer ptr;
};

/// Sequentially parses the records of `<dir>/<file_no>.vlog` over
/// [0, limit) into *records (offsets/sizes filled in as ValuePointers).
/// *scanned_bytes counts the walked prefix even when the scan aborts at a
/// corrupt record, in which case the Status is Corruption and the caller
/// quarantines the file instead of deleting it (records past the damage may
/// still be live and must stay readable for replica repair).
Status ScanFileForGc(Env* env, const std::string& dir, uint64_t file_no,
                     uint64_t limit, std::vector<GcRecord>* records,
                     uint64_t* scanned_bytes);

}  // namespace vlog
}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_VLOG_GC_H_
