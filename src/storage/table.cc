#include "storage/table.h"

#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"
#include "obs/metrics.h"
#include "storage/bloom.h"
#include "storage/comparator.h"
#include "storage/dbformat.h"

namespace iotdb {
namespace storage {

namespace {

/// "<reason> in block at offset N of <name>" — the file path and block
/// offset let quarantine logs and FDR entries identify the bad file.
Status BlockCorruption(const char* reason, const BlockHandle& handle,
                       const std::string& name) {
  std::string msg(reason);
  msg += " in block at offset " + std::to_string(handle.offset);
  if (!name.empty()) msg += " of " + name;
  return Status::Corruption(msg);
}

}  // namespace

Result<std::string> ReadBlockContents(const RandomAccessFile* file,
                                      const BlockHandle& handle,
                                      const std::string& name) {
  const size_t n = static_cast<size_t>(handle.size);
  // The block's own string is the read buffer. The checksum is verified
  // where the bytes lie, and bytes handed out in place are copied once, into
  // the block: a block that borrowed them instead would live only as long
  // as the read handle, and borrowing measured no faster on dashboard scans.
  std::string block(n + kBlockTrailerSize, '\0');
  Slice contents;
  IOTDB_RETURN_NOT_OK(file->Read(handle.offset, n + kBlockTrailerSize,
                                 &contents, block.data()));
  if (contents.size() != n + kBlockTrailerSize) {
    return BlockCorruption("truncated block read", handle, name);
  }
  const char* data = contents.data();
  const uint32_t crc = crc32c::Unmask(DecodeFixed32(data + n + 1));
  const uint32_t actual = crc32c::Value(data, n + 1);
  if (actual != crc) {
    return BlockCorruption("block checksum mismatch", handle, name);
  }
  if (data[n] != 0) {
    return BlockCorruption("unsupported block compression type", handle,
                           name);
  }
  if (data != block.data()) memcpy(block.data(), data, n);
  block.resize(n);
  return block;
}

Table::Table(const Options& options, std::unique_ptr<RandomAccessFile> file,
             std::string name)
    : options_(options), file_(std::move(file)), name_(std::move(name)) {}

Result<std::unique_ptr<Table>> Table::Open(
    const Options& options, std::unique_ptr<RandomAccessFile> file,
    const std::string& name) {
  uint64_t size = file->Size();
  if (size < Footer::kEncodedLength) {
    return Status::Corruption(
        (name.empty() ? std::string("file") : name) +
        " is too short to be an sstable");
  }
  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  IOTDB_RETURN_NOT_OK(file->Read(size - Footer::kEncodedLength,
                                 Footer::kEncodedLength, &footer_input,
                                 footer_space));
  Footer footer;
  IOTDB_RETURN_NOT_OK(footer.DecodeFrom(&footer_input));

  auto table = std::unique_ptr<Table>(
      new Table(options, std::move(file), name));

  IOTDB_ASSIGN_OR_RETURN(
      std::string index_contents,
      ReadBlockContents(table->file_.get(), footer.index_handle, name));
  table->index_block_ = std::make_unique<Block>(std::move(index_contents));

  if (footer.filter_handle.size > 0) {
    IOTDB_ASSIGN_OR_RETURN(
        table->filter_data_,
        ReadBlockContents(table->file_.get(), footer.filter_handle, name));
  }
  return table;
}

Result<std::unique_ptr<Block>> Table::ReadBlock(
    const BlockHandle& handle) const {
  IOTDB_ASSIGN_OR_RETURN(std::string contents,
                         ReadBlockContents(file_.get(), handle, name_));
  return std::make_unique<Block>(std::move(contents));
}

Status Table::VerifyIntegrity(uint64_t* bytes_checked) const {
  uint64_t checked = 0;
  Status s;
  do {
    // Footer: re-read and re-decode (DecodeFrom validates the magic).
    uint64_t size = file_->Size();
    if (size < Footer::kEncodedLength) {
      s = Status::Corruption(
          (name_.empty() ? std::string("file") : name_) +
          " is too short to be an sstable");
      break;
    }
    char footer_space[Footer::kEncodedLength];
    Slice footer_input;
    s = file_->Read(size - Footer::kEncodedLength, Footer::kEncodedLength,
                    &footer_input, footer_space);
    if (!s.ok()) break;
    Footer footer;
    s = footer.DecodeFrom(&footer_input);
    if (!s.ok()) break;
    checked += Footer::kEncodedLength;

    // Index and filter blocks, checksummed, straight from the file.
    auto index = ReadBlockContents(file_.get(), footer.index_handle, name_);
    if (!index.ok()) {
      s = index.status();
      break;
    }
    checked += footer.index_handle.size + kBlockTrailerSize;
    if (footer.filter_handle.size > 0) {
      auto filter =
          ReadBlockContents(file_.get(), footer.filter_handle, name_);
      if (!filter.ok()) {
        s = filter.status();
        break;
      }
      checked += footer.filter_handle.size + kBlockTrailerSize;
    }

    // Every data block the (just re-verified) index references.
    Block index_block(std::move(index).MoveValueUnsafe());
    auto iter = index_block.NewIterator(options_.comparator);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      BlockHandle handle;
      Slice input = iter->value();
      s = handle.DecodeFrom(&input);
      if (!s.ok()) break;
      auto data = ReadBlockContents(file_.get(), handle, name_);
      if (!data.ok()) {
        s = data.status();
        break;
      }
      checked += handle.size + kBlockTrailerSize;
    }
    if (s.ok()) s = iter->status();
  } while (false);
  if (bytes_checked != nullptr) *bytes_checked += checked;
  return s;
}

namespace {

/// Two-level iterator: walks the index block; for each index entry reads the
/// referenced data block and iterates it. Owns the current block, which its
/// data iterator points into.
class TwoLevelIterator final : public Iterator {
 public:
  explicit TwoLevelIterator(const Table* table)
      : table_(table),
        index_iter_(
            table->index_block()->NewIterator(table->comparator())) {}

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyDataBlocksForward();
  }

  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyDataBlocksForward();
  }

  void Next() override {
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }

  Status status() const override {
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  void InitDataBlock() {
    if (!index_iter_->Valid()) {
      SetDataBlock(nullptr);
      return;
    }
    Slice handle_value = index_iter_->value();
    BlockHandle handle;
    Slice input = handle_value;
    Status s = handle.DecodeFrom(&input);
    if (!s.ok()) {
      status_ = s;
      SetDataBlock(nullptr);
      return;
    }
    auto block_result = table_->ReadBlock(handle);
    if (!block_result.ok()) {
      status_ = block_result.status();
      SetDataBlock(nullptr);
      return;
    }
    SetDataBlock(std::move(block_result).MoveValueUnsafe());
  }

  void SetDataBlock(std::unique_ptr<Block> block) {
    data_block_ = std::move(block);
    data_iter_ = data_block_ == nullptr
                     ? nullptr
                     : data_block_->NewIterator(table_->comparator());
  }

  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        SetDataBlock(nullptr);
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  const Table* table_;
  std::unique_ptr<Iterator> index_iter_;
  std::unique_ptr<Block> data_block_;
  std::unique_ptr<Iterator> data_iter_;
  Status status_;
};

}  // namespace

std::unique_ptr<Iterator> Table::NewIterator() const {
  return std::make_unique<TwoLevelIterator>(this);
}

Result<std::string> Table::ReadLastKey() const {
  // One index entry per data block, in key order: the last one locates the
  // block that holds the largest key.
  std::string last_handle;
  auto index_iter = index_block_->NewIterator(options_.comparator);
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    last_handle.assign(index_iter->value().data(), index_iter->value().size());
  }
  IOTDB_RETURN_NOT_OK(index_iter->status());
  std::string last_key;
  if (last_handle.empty()) return last_key;

  BlockHandle handle;
  Slice input(last_handle);
  IOTDB_RETURN_NOT_OK(handle.DecodeFrom(&input));
  IOTDB_ASSIGN_OR_RETURN(auto block, ReadBlock(handle));
  auto block_iter = block->NewIterator(options_.comparator);
  for (block_iter->SeekToFirst(); block_iter->Valid(); block_iter->Next()) {
    last_key.assign(block_iter->key().data(), block_iter->key().size());
  }
  IOTDB_RETURN_NOT_OK(block_iter->status());
  // The builder never writes an empty data block.
  if (last_key.empty()) {
    return BlockCorruption("empty data block", handle, name_);
  }
  return last_key;
}

Status Table::InternalGet(const Slice& k, void* arg,
                          void (*handle_result)(void*, const Slice&,
                                                const Slice&)) const {
  if (!filter_data_.empty()) {
    const bool may_match =
        BloomFilterMayMatch(Slice(filter_data_), ExtractUserKey(k));
    static obs::Counter* checks =
        obs::MetricsRegistry::Global().GetCounter("storage.bloom.checks");
    static obs::Counter* negatives =
        obs::MetricsRegistry::Global().GetCounter("storage.bloom.negatives");
    checks->Increment();
    if (!may_match) {
      negatives->Increment();
      return Status::OK();  // definitely not present
    }
  }
  auto index_iter = index_block_->NewIterator(options_.comparator);
  index_iter->Seek(k);
  if (!index_iter->Valid()) return index_iter->status();

  BlockHandle handle;
  Slice input = index_iter->value();
  IOTDB_RETURN_NOT_OK(handle.DecodeFrom(&input));
  IOTDB_ASSIGN_OR_RETURN(auto block, ReadBlock(handle));
  auto block_iter = block->NewIterator(options_.comparator);
  block_iter->Seek(k);
  if (block_iter->Valid()) {
    (*handle_result)(arg, block_iter->key(), block_iter->value());
  }
  return block_iter->status();
}

}  // namespace storage
}  // namespace iotdb
