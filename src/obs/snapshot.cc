#include "obs/snapshot.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "obs/metrics.h"

namespace iotdb {
namespace obs {

// ---------------------------------------------------------------------------
// HistogramSnapshot
// ---------------------------------------------------------------------------

void HistogramSnapshot::Record(uint64_t value) {
  min = count == 0 ? value : std::min(min, value);
  max = std::max(max, value);
  ++count;
  sum += value;
  const auto index =
      static_cast<uint32_t>(LatencyHistogram::BucketIndexFor(value));
  auto it = std::lower_bound(
      buckets.begin(), buckets.end(), index,
      [](const auto& bucket, uint32_t i) { return bucket.first < i; });
  if (it != buckets.end() && it->first == index) {
    ++it->second;
  } else {
    buckets.emplace(it, index, 1);
  }
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (count == 0 || (other.count > 0 && other.min < min)) min = other.min;
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  std::map<uint32_t, uint64_t> merged(buckets.begin(), buckets.end());
  for (const auto& [index, n] : other.buckets) merged[index] += n;
  buckets.assign(merged.begin(), merged.end());
}

double HistogramSnapshot::Mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample, 1-based; interpolate within its bucket by
  // rank position, then clamp to the observed extremes.
  const double target = p / 100.0 * static_cast<double>(count);
  double seen = 0;
  for (const auto& [index, n] : buckets) {
    if (seen + static_cast<double>(n) >= target) {
      const double lo =
          static_cast<double>(LatencyHistogram::BucketLowerBound(index));
      const double hi =
          static_cast<double>(LatencyHistogram::BucketUpperBound(index));
      const double within =
          n == 0 ? 0.0 : (target - seen) / static_cast<double>(n);
      double value = lo + (hi - lo) * within;
      value = std::max(value, static_cast<double>(min));
      value = std::min(value, static_cast<double>(max));
      return value;
    }
    seen += static_cast<double>(n);
  }
  return static_cast<double>(max);
}

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot delta;
  delta.count = count >= earlier.count ? count - earlier.count : 0;
  delta.sum = sum >= earlier.sum ? sum - earlier.sum : 0;
  delta.min = min;
  delta.max = max;
  std::map<uint32_t, uint64_t> earlier_buckets(earlier.buckets.begin(),
                                               earlier.buckets.end());
  for (const auto& [index, n] : buckets) {
    auto it = earlier_buckets.find(index);
    uint64_t before = it == earlier_buckets.end() ? 0 : it->second;
    if (n > before) delta.buckets.emplace_back(index, n - before);
  }
  return delta;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters) {
    auto it = earlier.counters.find(name);
    uint64_t before = it == earlier.counters.end() ? 0 : it->second;
    delta.counters[name] = value >= before ? value - before : 0;
  }
  delta.gauges = gauges;
  for (const auto& [name, hist] : histograms) {
    auto it = earlier.histograms.find(name);
    delta.histograms[name] =
        it == earlier.histograms.end() ? hist : hist.DeltaSince(it->second);
  }
  return delta;
}

// ---------------------------------------------------------------------------
// JSON export / import
// ---------------------------------------------------------------------------

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Minimal recursive-descent parser for the subset of JSON ToJson() emits:
/// objects, arrays, strings and (possibly negative) integers.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Status ParseSnapshot(MetricsSnapshot* out) {
    IOTDB_RETURN_NOT_OK(Expect('{'));
    bool first = true;
    while (!TryConsume('}')) {
      if (!first) IOTDB_RETURN_NOT_OK(Expect(','));
      first = false;
      std::string section;
      IOTDB_RETURN_NOT_OK(ParseString(&section));
      IOTDB_RETURN_NOT_OK(Expect(':'));
      if (section == "counters") {
        IOTDB_RETURN_NOT_OK(ParseUintMap(&out->counters));
      } else if (section == "gauges") {
        IOTDB_RETURN_NOT_OK(ParseIntMap(&out->gauges));
      } else if (section == "histograms") {
        IOTDB_RETURN_NOT_OK(ParseHistogramMap(&out->histograms));
      } else {
        return Status::Corruption("unknown snapshot section: " + section);
      }
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::Corruption("trailing bytes after snapshot JSON");
    }
    return Status::OK();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool TryConsume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (TryConsume(c)) return Status::OK();
    return Status::Corruption(std::string("expected '") + c + "' at offset " +
                              std::to_string(pos_));
  }

  Status ParseString(std::string* out) {
    IOTDB_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Status::Corruption("truncated \\u escape");
            }
            unsigned code = 0;
            sscanf(text_.substr(pos_, 4).c_str(), "%4x", &code);
            pos_ += 4;
            out->push_back(static_cast<char>(code));
            break;
          }
          default:
            out->push_back(esc);
        }
      } else {
        out->push_back(c);
      }
    }
    if (pos_ >= text_.size()) return Status::Corruption("unterminated string");
    ++pos_;  // closing quote
    return Status::OK();
  }

  Status ParseInt(int64_t* out) {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    size_t digits_start = pos_;
    while (pos_ < text_.size() &&
           isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits_start) return Status::Corruption("expected integer");
    *out = strtoll(text_.substr(start, pos_ - start).c_str(), nullptr, 10);
    return Status::OK();
  }

  Status ParseUint(uint64_t* out) {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return Status::Corruption("expected unsigned integer");
    *out = strtoull(text_.substr(start, pos_ - start).c_str(), nullptr, 10);
    return Status::OK();
  }

  Status ParseUintMap(std::map<std::string, uint64_t>* out) {
    IOTDB_RETURN_NOT_OK(Expect('{'));
    bool first = true;
    while (!TryConsume('}')) {
      if (!first) IOTDB_RETURN_NOT_OK(Expect(','));
      first = false;
      std::string key;
      uint64_t value = 0;
      IOTDB_RETURN_NOT_OK(ParseString(&key));
      IOTDB_RETURN_NOT_OK(Expect(':'));
      IOTDB_RETURN_NOT_OK(ParseUint(&value));
      (*out)[key] = value;
    }
    return Status::OK();
  }

  Status ParseIntMap(std::map<std::string, int64_t>* out) {
    IOTDB_RETURN_NOT_OK(Expect('{'));
    bool first = true;
    while (!TryConsume('}')) {
      if (!first) IOTDB_RETURN_NOT_OK(Expect(','));
      first = false;
      std::string key;
      int64_t value = 0;
      IOTDB_RETURN_NOT_OK(ParseString(&key));
      IOTDB_RETURN_NOT_OK(Expect(':'));
      IOTDB_RETURN_NOT_OK(ParseInt(&value));
      (*out)[key] = value;
    }
    return Status::OK();
  }

  Status ParseHistogram(HistogramSnapshot* out) {
    IOTDB_RETURN_NOT_OK(Expect('{'));
    bool first = true;
    while (!TryConsume('}')) {
      if (!first) IOTDB_RETURN_NOT_OK(Expect(','));
      first = false;
      std::string field;
      IOTDB_RETURN_NOT_OK(ParseString(&field));
      IOTDB_RETURN_NOT_OK(Expect(':'));
      if (field == "count") {
        IOTDB_RETURN_NOT_OK(ParseUint(&out->count));
      } else if (field == "sum") {
        IOTDB_RETURN_NOT_OK(ParseUint(&out->sum));
      } else if (field == "min") {
        IOTDB_RETURN_NOT_OK(ParseUint(&out->min));
      } else if (field == "max") {
        IOTDB_RETURN_NOT_OK(ParseUint(&out->max));
      } else if (field == "buckets") {
        IOTDB_RETURN_NOT_OK(Expect('['));
        bool first_bucket = true;
        while (!TryConsume(']')) {
          if (!first_bucket) IOTDB_RETURN_NOT_OK(Expect(','));
          first_bucket = false;
          uint64_t index, n;
          IOTDB_RETURN_NOT_OK(Expect('['));
          IOTDB_RETURN_NOT_OK(ParseUint(&index));
          IOTDB_RETURN_NOT_OK(Expect(','));
          IOTDB_RETURN_NOT_OK(ParseUint(&n));
          IOTDB_RETURN_NOT_OK(Expect(']'));
          out->buckets.emplace_back(static_cast<uint32_t>(index), n);
        }
      } else {
        return Status::Corruption("unknown histogram field: " + field);
      }
    }
    return Status::OK();
  }

  Status ParseHistogramMap(std::map<std::string, HistogramSnapshot>* out) {
    IOTDB_RETURN_NOT_OK(Expect('{'));
    bool first = true;
    while (!TryConsume('}')) {
      if (!first) IOTDB_RETURN_NOT_OK(Expect(','));
      first = false;
      std::string key;
      IOTDB_RETURN_NOT_OK(ParseString(&key));
      IOTDB_RETURN_NOT_OK(Expect(':'));
      IOTDB_RETURN_NOT_OK(ParseHistogram(&(*out)[key]));
    }
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out;
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    out += std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":" + std::to_string(hist.count);
    out += ",\"sum\":" + std::to_string(hist.sum);
    out += ",\"min\":" + std::to_string(hist.min);
    out += ",\"max\":" + std::to_string(hist.max);
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [index, n] : hist.buckets) {
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      out += "[" + std::to_string(index) + "," + std::to_string(n) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

Result<MetricsSnapshot> MetricsSnapshot::FromJson(const std::string& json) {
  MetricsSnapshot snap;
  JsonParser parser(json);
  IOTDB_RETURN_NOT_OK(parser.ParseSnapshot(&snap));
  return snap;
}

std::string MetricsSnapshot::ToTable() const {
  std::string out;
  char line[256];
  for (const auto& [name, value] : counters) {
    snprintf(line, sizeof(line), "  %-52s %14llu\n", name.c_str(),
             static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, value] : gauges) {
    snprintf(line, sizeof(line), "  %-52s %14lld  (gauge)\n", name.c_str(),
             static_cast<long long>(value));
    out += line;
  }
  for (const auto& [name, hist] : histograms) {
    snprintf(line, sizeof(line),
             "  %-52s n=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f "
             "p99.9=%.1f max=%llu\n",
             name.c_str(), static_cast<unsigned long long>(hist.count),
             hist.Mean(), hist.Percentile(50), hist.Percentile(95),
             hist.Percentile(99), hist.Percentile(99.9),
             static_cast<unsigned long long>(hist.max));
    out += line;
  }
  return out;
}

}  // namespace obs
}  // namespace iotdb
