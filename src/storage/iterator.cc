#include "storage/iterator.h"

namespace iotdb {
namespace storage {

namespace {

class EmptyIterator final : public Iterator {
 public:
  explicit EmptyIterator(Status s) : status_(std::move(s)) {}

  bool Valid() const override { return false; }
  void SeekToFirst() override {}
  void Seek(const Slice&) override {}
  void Next() override {}
  Slice key() const override { return Slice(); }
  Slice value() const override { return Slice(); }
  Status status() const override { return status_; }

 private:
  Status status_;
};

}  // namespace

std::unique_ptr<Iterator> NewEmptyIterator() {
  return std::make_unique<EmptyIterator>(Status::OK());
}

std::unique_ptr<Iterator> NewErrorIterator(Status status) {
  return std::make_unique<EmptyIterator>(std::move(status));
}

}  // namespace storage
}  // namespace iotdb
