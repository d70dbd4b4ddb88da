#include "storage/block.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/coding.h"
#include "storage/comparator.h"

namespace iotdb {
namespace storage {

uint32_t Block::NumRestarts() const {
  return DecodeFixed32(contents_.data() + contents_.size() -
                       sizeof(uint32_t));
}

Block::Block(std::string contents)
    : contents_(std::move(contents)), restart_offset_(0), malformed_(false) {
  if (contents_.size() < sizeof(uint32_t)) {
    malformed_ = true;
    return;
  }
  uint32_t num_restarts = NumRestarts();
  size_t max_restarts =
      (contents_.size() - sizeof(uint32_t)) / sizeof(uint32_t);
  if (num_restarts > max_restarts) {
    malformed_ = true;
    return;
  }
  restart_offset_ = static_cast<uint32_t>(
      contents_.size() - (1 + num_restarts) * sizeof(uint32_t));
}

namespace {

/// Decodes entry header at p: shared, non_shared, value_length. Returns a
/// pointer past the header or nullptr on corruption.
const char* DecodeEntry(const char* p, const char* limit, uint32_t* shared,
                        uint32_t* non_shared, uint32_t* value_length) {
  if (limit - p < 3) return nullptr;
  *shared = static_cast<uint8_t>(p[0]);
  *non_shared = static_cast<uint8_t>(p[1]);
  *value_length = static_cast<uint8_t>(p[2]);
  if ((*shared | *non_shared | *value_length) < 128) {
    // Fast path: all three single-byte varints.
    p += 3;
  } else {
    if ((p = GetVarint32Ptr(p, limit, shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, non_shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, value_length)) == nullptr) {
      return nullptr;
    }
  }
  if (static_cast<uint32_t>(limit - p) < (*non_shared + *value_length)) {
    return nullptr;
  }
  return p;
}

class BlockIter final : public Iterator {
 public:
  BlockIter(const Comparator* comparator, const char* data,
            uint32_t restart_offset, uint32_t num_restarts)
      : comparator_(comparator),
        data_(data),
        restarts_(restart_offset),
        num_restarts_(num_restarts),
        current_(restart_offset) {}

  bool Valid() const override { return current_ < restarts_; }

  Status status() const override { return status_; }

  Slice key() const override { return Slice(key_); }
  Slice value() const override { return value_; }

  void Next() override { ParseNextKey(); }

  void Seek(const Slice& target) override {
    // Binary search over restart points for the last restart with a key <
    // target, then scan linearly.
    uint32_t left = 0;
    uint32_t right = num_restarts_ > 0 ? num_restarts_ - 1 : 0;
    while (left < right) {
      uint32_t mid = (left + right + 1) / 2;
      uint32_t region_offset = GetRestartPoint(mid);
      uint32_t shared, non_shared, value_length;
      const char* key_ptr =
          DecodeEntry(data_ + region_offset, data_ + restarts_, &shared,
                      &non_shared, &value_length);
      if (key_ptr == nullptr || shared != 0) {
        CorruptionError();
        return;
      }
      Slice mid_key(key_ptr, non_shared);
      if (comparator_->Compare(mid_key, target) < 0) {
        left = mid;
      } else {
        right = mid - 1;
      }
    }

    SeekToRestartPoint(left);
    for (;;) {
      if (!ParseNextKey()) return;
      if (comparator_->Compare(Slice(key_), target) >= 0) return;
    }
  }

  void SeekToFirst() override {
    SeekToRestartPoint(0);
    ParseNextKey();
  }

 private:
  uint32_t NextEntryOffset() const {
    return static_cast<uint32_t>((value_.data() + value_.size()) - data_);
  }

  uint32_t GetRestartPoint(uint32_t index) const {
    return DecodeFixed32(data_ + restarts_ + index * sizeof(uint32_t));
  }

  void SeekToRestartPoint(uint32_t index) {
    key_.clear();
    // value_ is positioned so NextEntryOffset() lands on the restart point.
    uint32_t offset = GetRestartPoint(index);
    value_ = Slice(data_ + offset, 0);
  }

  void CorruptionError() {
    current_ = restarts_;
    status_ = Status::Corruption("bad entry in block");
    key_.clear();
    value_.clear();
  }

  bool ParseNextKey() {
    current_ = NextEntryOffset();
    const char* p = data_ + current_;
    const char* limit = data_ + restarts_;
    if (p >= limit) {
      current_ = restarts_;
      return false;
    }

    uint32_t shared, non_shared, value_length;
    p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
    if (p == nullptr || key_.size() < shared) {
      CorruptionError();
      return false;
    }
    key_.resize(shared);
    key_.append(p, non_shared);
    value_ = Slice(p + non_shared, value_length);
    return true;
  }

  const Comparator* const comparator_;
  const char* const data_;
  uint32_t const restarts_;
  uint32_t const num_restarts_;

  uint32_t current_;  // offset of the current entry
  std::string key_;
  Slice value_;
  Status status_;
};

}  // namespace

std::unique_ptr<Iterator> Block::NewIterator(
    const Comparator* comparator) const {
  if (malformed_) {
    return NewErrorIterator(Status::Corruption("bad block contents"));
  }
  uint32_t num_restarts = NumRestarts();
  if (num_restarts == 0) {
    return NewEmptyIterator();
  }
  return std::make_unique<BlockIter>(comparator, contents_.data(),
                                     restart_offset_, num_restarts);
}

}  // namespace storage
}  // namespace iotdb
