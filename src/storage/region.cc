#include "storage/region.h"

#include <algorithm>
#include <iterator>

namespace iotdb {
namespace storage {

bool SequenceRanges::Overlaps(SequenceNumber first, SequenceNumber end) const {
  if (first >= end) return false;
  // The last range starting before `end` is the only one that can reach
  // into [first, end).
  auto it = ranges_.lower_bound(end);
  if (it == ranges_.begin()) return false;
  --it;
  return it->second > first;
}

void SequenceRanges::Add(SequenceNumber first, SequenceNumber end) {
  if (first >= end) return;
  auto it = ranges_.upper_bound(first);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= first) {
      first = prev->first;
      end = std::max(end, prev->second);
      it = ranges_.erase(prev);
    }
  }
  while (it != ranges_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = ranges_.erase(it);
  }
  ranges_.emplace(first, end);
}

void SequenceRanges::Merge(const SequenceRanges& other) {
  for (const auto& [first, end] : other.ranges_) Add(first, end);
}

SequenceNumber SequenceRanges::Covered() const {
  if (ranges_.empty() || ranges_.begin()->first > 1) return 0;
  return ranges_.begin()->second - 1;
}

}  // namespace storage
}  // namespace iotdb
