#include "lib/spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace kitbench {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanLog::SpanLog(bool enabled, size_t capacity)
    : enabled_(enabled), capacity_(capacity) {
  if (enabled_) spans_.reserve(std::min<size_t>(capacity_, 1 << 16));
}

uint64_t SpanLog::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t SpanLog::Begin(const char* name, uint64_t op_id,
                        uint64_t parent_id) {
  if (!enabled_) return 0;
  const uint64_t id = NextId();
  open_.push_back({name, op_id, id, parent_id, NowNanos()});
  return id;
}

void SpanLog::End(uint64_t span_id) {
  if (!enabled_ || span_id == 0) return;
  const uint64_t now = NowNanos();
  // Spans close in LIFO order on one thread; search from the back anyway
  // so an out-of-order End still closes the right span.
  for (size_t i = open_.size(); i-- > 0;) {
    if (open_[i].span_id != span_id) continue;
    const Open o = open_[i];
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back({o.name, o.op_id, o.span_id, o.parent_id, o.start_ns,
                      std::max(now, o.start_ns)});
    return;
  }
}

std::vector<uint64_t> SelfTimesOf(const std::vector<Span>& spans) {
  // Only spans with an id can be parents; several untraced program spans
  // share span id 0 and are never anyone's parent.
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].span_id != 0) index_of.emplace(spans[i].span_id, i);
  }
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> covered(
      spans.size());
  for (const Span& child : spans) {
    if (child.parent_id == 0) continue;
    auto it = index_of.find(child.parent_id);
    if (it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    const uint64_t lo = std::max(child.start_ns, parent.start_ns);
    const uint64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    uint64_t union_ns = 0;
    uint64_t cur_lo = 0;
    uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - union_ns;
  }
  return self;
}

std::map<std::string, SelfTime> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimesOf(spans);
  std::map<std::string, SelfTime> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = by_name[spans[i].name];
    t.count++;
    t.total_ns += spans[i].duration_ns();
    t.self_ns += self[i];
  }
  return by_name;
}

std::vector<Span> FromTraceEvents(
    const std::vector<iotdb::obs::TraceEvent>& events) {
  std::vector<Span> spans;
  spans.reserve(events.size());
  for (const auto& e : events) {
    const uint64_t start = e.start_micros * 1000;
    spans.push_back({e.name, e.trace_id, e.span_id, e.parent_id, start,
                     start + e.duration_micros * 1000});
  }
  return spans;
}

std::string LayerTable(const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimesOf(spans);
  std::map<std::string, SelfTime> in_requests;
  std::map<std::string, SelfTime> background;
  SelfTime requests;  // root spans; their self time is the residual
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SelfTime& t = s.op_id == 0          ? background[s.name]
                  : s.parent_id == 0 ? requests
                                     : in_requests[s.name];
    t.count++;
    t.total_ns += s.duration_ns();
    t.self_ns += self[i];
  }
  const uint64_t request_ns = requests.total_ns;
  std::string out;
  char line[256];
  snprintf(line, sizeof(line),
           "per-layer self time over %llu requests (%.3f s in requests)\n",
           static_cast<unsigned long long>(requests.count), request_ns / 1e9);
  out += line;
  snprintf(line, sizeof(line), "  %-32s %10s %12s %12s %8s\n", "span",
           "count", "total_ms", "self_ms", "share");
  out += line;
  // Share = self time over the requests' total time. Parallel children
  // (replica applies, pipelined quorum writes) overlap, so their shares
  // can sum past 100%.
  auto add_row = [&](const std::string& name, const SelfTime& r, bool share) {
    snprintf(line, sizeof(line), "  %-32s %10llu %12.3f %12.3f", name.c_str(),
             static_cast<unsigned long long>(r.count), r.total_ns / 1e6,
             r.self_ns / 1e6);
    out += line;
    if (share && request_ns != 0) {
      snprintf(line, sizeof(line), " %7.2f%%", 100.0 * r.self_ns / request_ns);
      out += line;
    }
    out += "\n";
  };
  for (const auto& [name, row] : in_requests) add_row(name, row, true);
  add_row("unattributed", requests, true);
  if (!background.empty()) {
    out += "  outside any request (background work, untraced spans):\n";
    for (const auto& [name, row] : background) add_row(name, row, false);
  }
  return out;
}

}  // namespace kitbench
