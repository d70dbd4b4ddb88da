#include "storage/merger.h"

#include "storage/comparator.h"

namespace iotdb {
namespace storage {

namespace {

class MergingIterator final : public Iterator {
 public:
  MergingIterator(const Comparator* comparator,
                  std::vector<std::unique_ptr<Iterator>> children)
      : comparator_(comparator),
        children_(std::move(children)),
        current_(nullptr) {}

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    for (auto& child : children_) child->SeekToFirst();
    FindSmallest();
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) child->Seek(target);
    FindSmallest();
  }

  void Next() override {
    current_->Next();
    FindSmallest();
  }

  Slice key() const override { return current_->key(); }
  Slice value() const override { return current_->value(); }

  Status status() const override {
    for (const auto& child : children_) {
      Status s = child->status();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  void FindSmallest() {
    Iterator* smallest = nullptr;
    for (auto& child : children_) {
      if (child->Valid() &&
          (smallest == nullptr ||
           comparator_->Compare(child->key(), smallest->key()) < 0)) {
        smallest = child.get();
      }
    }
    current_ = smallest;
  }

  const Comparator* comparator_;
  std::vector<std::unique_ptr<Iterator>> children_;
  Iterator* current_;
};

}  // namespace

std::unique_ptr<Iterator> NewMergingIterator(
    const Comparator* comparator,
    std::vector<std::unique_ptr<Iterator>> children) {
  if (children.empty()) return NewEmptyIterator();
  if (children.size() == 1) return std::move(children[0]);
  return std::make_unique<MergingIterator>(comparator, std::move(children));
}

}  // namespace storage
}  // namespace iotdb
