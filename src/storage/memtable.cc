#include "storage/memtable.h"

#include "common/coding.h"

namespace iotdb {
namespace storage {

namespace {

// Memtable entries are stored as a single arena allocation:
//   varint32(internal_key_len) | internal_key | varint32(value_len) | value
Slice GetLengthPrefixed(const char* data) {
  uint32_t len;
  const char* p = GetVarint32Ptr(data, data + 5, &len);
  return Slice(p, len);
}

}  // namespace

int MemTable::KeyComparator::operator()(const char* a, const char* b) const {
  Slice ka = GetLengthPrefixed(a);
  Slice kb = GetLengthPrefixed(b);
  return comparator.Compare(ka, kb);
}

MemTable::MemTable(const InternalKeyComparator& comparator)
    : comparator_(comparator),
      refs_(0),
      num_entries_(0),
      table_(comparator_, &arena_) {}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& key,
                   const Slice& value) {
  size_t key_size = key.size();
  size_t val_size = value.size();
  size_t internal_key_size = key_size + 8;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size + VarintLength(val_size) +
                             val_size;
  char* buf = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(internal_key_size));
  memcpy(p, key.data(), key_size);
  p += key_size;
  EncodeFixed64(p, PackSequenceAndType(seq, type));
  p += 8;
  p = EncodeVarint32(p, static_cast<uint32_t>(val_size));
  memcpy(p, value.data(), val_size);
  table_.Insert(buf);
  num_entries_.fetch_add(1, std::memory_order_relaxed);
}

bool MemTable::Get(const Slice& user_key, SequenceNumber seq,
                   std::string* value, Status* s) {
  std::string lookup = MakeLookupKey(user_key, seq);
  std::string entry_key;
  PutVarint32(&entry_key, static_cast<uint32_t>(lookup.size()));
  entry_key.append(lookup);

  Table::Iterator iter(&table_);
  iter.Seek(entry_key.data());
  if (!iter.Valid()) return false;

  const char* entry = iter.key();
  Slice internal_key = GetLengthPrefixed(entry);
  ParsedInternalKey parsed;
  if (!ParseInternalKey(internal_key, &parsed)) {
    *s = Status::Corruption("malformed memtable key");
    return true;
  }
  if (comparator_.comparator.user_comparator()->Compare(parsed.user_key,
                                                        user_key) != 0) {
    return false;
  }
  switch (parsed.type) {
    case ValueType::kValue: {
      const char* value_pos = internal_key.data() + internal_key.size();
      Slice v = GetLengthPrefixed(value_pos);
      value->assign(v.data(), v.size());
      *s = Status::OK();
      return true;
    }
    case ValueType::kDeletion:
      *s = Status::NotFound("deleted");
      return true;
  }
  return false;
}

namespace {

class MemTableIterator final : public Iterator {
 public:
  explicit MemTableIterator(MemTable* mem, SkipList<const char*,
                            MemTable::KeyComparator>* table);
  ~MemTableIterator() override { mem_->Unref(); }

  bool Valid() const override { return iter_.Valid(); }
  void Seek(const Slice& k) override {
    tmp_.clear();
    PutVarint32(&tmp_, static_cast<uint32_t>(k.size()));
    tmp_.append(k.data(), k.size());
    iter_.Seek(tmp_.data());
  }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void Next() override { iter_.Next(); }
  Slice key() const override { return GetLengthPrefixed(iter_.key()); }
  Slice value() const override {
    Slice k = GetLengthPrefixed(iter_.key());
    return GetLengthPrefixed(k.data() + k.size());
  }
  Status status() const override { return Status::OK(); }

 private:
  MemTable* mem_;
  SkipList<const char*, MemTable::KeyComparator>::Iterator iter_;
  std::string tmp_;
};

MemTableIterator::MemTableIterator(
    MemTable* mem, SkipList<const char*, MemTable::KeyComparator>* table)
    : mem_(mem), iter_(table) {
  mem_->Ref();
}

}  // namespace

std::unique_ptr<Iterator> MemTable::NewIterator() {
  return std::make_unique<MemTableIterator>(this, &table_);
}

}  // namespace storage
}  // namespace iotdb
