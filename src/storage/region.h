#ifndef IOTDB_STORAGE_REGION_H_
#define IOTDB_STORAGE_REGION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/dbformat.h"
#include "storage/vlog_format.h"

namespace iotdb {
namespace storage {

/// The role a cluster gives a region store when it opens it
/// (KVStore::OpenRegion). A region holds one shard; the cluster numbers
/// the shard's batches, so every replica commits each batch at the same
/// sequences.
enum class RegionRole : uint8_t {
  /// A full LSM: logs, indexes, flushes and compacts, and ships each new
  /// version to the shard's backups.
  kLeader,
  /// Appends each batch to its log and installs the leader's files. It
  /// runs no flush, compaction or background thread, and indexes its log
  /// tail only when something reads it.
  kBackup,
};

/// A set of sequence numbers, kept as disjoint half-open ranges. A region
/// uses it to apply each coordinator-numbered batch once.
class SequenceRanges {
 public:
  /// True when any sequence of [first, end) is in the set.
  bool Overlaps(SequenceNumber first, SequenceNumber end) const;
  /// Adds [first, end), merging it with the ranges it touches.
  void Add(SequenceNumber first, SequenceNumber end);
  void Merge(const SequenceRanges& other);
  /// The largest s such that every sequence in [1, s] is in the set.
  SequenceNumber Covered() const;
  /// first -> end, in order.
  const std::map<SequenceNumber, SequenceNumber>& ranges() const {
    return ranges_;
  }

 private:
  std::map<SequenceNumber, SequenceNumber> ranges_;
};

/// One live table of a region's version.
struct RegionTable {
  int level = 0;
  uint64_t number = 0;
  /// The vlog files its pointer entries point into (FileMeta::vlog_links).
  std::vector<uint64_t> vlog_links;
};

/// A leader region's version after a flush or compaction: what a backup
/// installs (KVStore::Install).
struct RegionVersion {
  /// The leader's directory, which the files are copied from.
  std::string dir;
  /// Every live table, level by level in the leader's order.
  std::vector<RegionTable> tables;
  /// Every live vlog file.
  std::vector<vlog::VlogFileInfo> vlogs;
  /// The tables and vlog files the edits since the last ship added.
  std::vector<uint64_t> added;
  /// Every sequence the files hold. Its covered prefix is the watermark:
  /// every sequence at or below it lies in the files.
  SequenceRanges held;
};

/// Receives a leader region's versions. Ship runs on the leader's
/// background thread with no store lock held; no flush or compaction runs
/// until it returns, so every file it names stays on disk meanwhile.
class RegionShipper {
 public:
  virtual ~RegionShipper() = default;
  /// Copies `version` into the shard's backups. Returns the number of a
  /// leader file whose copy failed verification, or 0.
  virtual uint64_t Ship(const RegionVersion& version) = 0;
};

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_REGION_H_
