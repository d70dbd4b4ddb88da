#ifndef IOTDB_STORAGE_BLOCK_H_
#define IOTDB_STORAGE_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/slice.h"
#include "storage/iterator.h"

namespace iotdb {
namespace storage {

class Comparator;

/// Immutable, parsed SSTable block. Owns its contents.
class Block {
 public:
  /// Takes ownership of the uncompressed block contents (entries + restart
  /// array as produced by BlockBuilder::Finish).
  explicit Block(std::string contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  /// New iterator over the block entries. The Block must outlive it.
  std::unique_ptr<Iterator> NewIterator(const Comparator* comparator) const;

 private:
  uint32_t NumRestarts() const;

  std::string contents_;
  uint32_t restart_offset_;  // offset of the restart array
  bool malformed_;
};

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_BLOCK_H_
