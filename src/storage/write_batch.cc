#include "storage/write_batch.h"

#include "common/coding.h"
#include "storage/memtable.h"

namespace iotdb {
namespace storage {

WriteBatch::WriteBatch() { Clear(); }

void WriteBatch::Clear() {
  rep_.clear();
  rep_.resize(kHeader);
}

int WriteBatch::Count() const { return DecodeFixed32(rep_.data() + 8); }

namespace {
void SetCount(std::string* rep, int n) {
  EncodeFixed32(rep->data() + 8, n);
}
}  // namespace

size_t WriteBatch::PutSize(const Slice& key, const Slice& value) {
  return 1 + VarintLength(key.size()) + key.size() +
         VarintLength(value.size()) + value.size();
}

void WriteBatch::Put(const Slice& key, const Slice& value) {
  SetCount(&rep_, Count() + 1);
  rep_.push_back(static_cast<char>(ValueType::kValue));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
}

void WriteBatch::Delete(const Slice& key) {
  SetCount(&rep_, Count() + 1);
  rep_.push_back(static_cast<char>(ValueType::kDeletion));
  PutLengthPrefixedSlice(&rep_, key);
}

SequenceNumber WriteBatch::sequence() const {
  return DecodeFixed64(rep_.data());
}

void WriteBatch::SetSequence(SequenceNumber seq) {
  EncodeFixed64(rep_.data(), seq);
}

Status WriteBatch::Iterate(Handler* handler) const {
  Slice input(rep_);
  if (input.size() < kHeader) {
    return Status::Corruption("malformed WriteBatch (too small)");
  }
  input.remove_prefix(kHeader);
  int found = 0;
  while (!input.empty()) {
    found++;
    char tag = input[0];
    input.remove_prefix(1);
    Slice key, value;
    switch (static_cast<ValueType>(tag)) {
      case ValueType::kValue:
        if (!GetLengthPrefixedSlice(&input, &key) ||
            !GetLengthPrefixedSlice(&input, &value)) {
          return Status::Corruption("bad WriteBatch Put");
        }
        handler->Put(key, value);
        break;
      case ValueType::kDeletion:
        if (!GetLengthPrefixedSlice(&input, &key)) {
          return Status::Corruption("bad WriteBatch Delete");
        }
        handler->Delete(key);
        break;
      default:
        return Status::Corruption("unknown WriteBatch tag");
    }
  }
  if (found != Count()) {
    return Status::Corruption("WriteBatch has wrong count");
  }
  return Status::OK();
}

namespace {

class MemTableInserter final : public WriteBatch::Handler {
 public:
  SequenceNumber sequence;
  MemTable* memtable;

  void Put(const Slice& key, const Slice& value) override {
    memtable->Add(sequence, ValueType::kValue, key, value);
    sequence++;
  }
  void Delete(const Slice& key) override {
    memtable->Add(sequence, ValueType::kDeletion, key, Slice());
    sequence++;
  }
};

}  // namespace

Status WriteBatch::InsertInto(MemTable* memtable) const {
  MemTableInserter inserter;
  inserter.sequence = sequence();
  inserter.memtable = memtable;
  return Iterate(&inserter);
}

Status WriteBatch::SetContents(WriteBatch* batch, const Slice& contents) {
  if (contents.size() < kHeader) {
    return Status::Corruption("malformed WriteBatch (too small)");
  }
  batch->rep_.assign(contents.data(), contents.size());
  return Status::OK();
}

void WriteBatch::Append(const WriteBatch& src) {
  SetCount(&rep_, Count() + src.Count());
  rep_.append(src.rep_.data() + kHeader, src.rep_.size() - kHeader);
}

}  // namespace storage
}  // namespace iotdb
