#ifndef IOTDB_COMMON_PROPERTIES_H_
#define IOTDB_COMMON_PROPERTIES_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace iotdb {

/// Java-properties-style key=value configuration, as used by the YCSB-derived
/// TPCx-IoT workload driver. Lines starting with '#' or '!' are comments;
/// whitespace around '=' or ':' separators is trimmed.
class Properties {
 public:
  Properties() = default;

  /// Parses properties from text, overwriting duplicates last-wins.
  Status ParseText(const std::string& text);

  void Set(const std::string& key, const std::string& value) {
    map_[key] = value;
  }

  bool Contains(const std::string& key) const {
    return map_.find(key) != map_.end();
  }

  /// String value or `def` when missing.
  std::string Get(const std::string& key, const std::string& def = "") const;

  /// Typed accessors: return the default when the key is absent; return an
  /// InvalidArgument error when present but unparsable.
  Result<int64_t> GetInt(const std::string& key, int64_t def) const;
  Result<double> GetDouble(const std::string& key, double def) const;
  Result<bool> GetBool(const std::string& key, bool def) const;

  const std::map<std::string, std::string>& map() const { return map_; }

  /// Serialises back to "key=value\n" lines in sorted key order.
  std::string ToText() const;

 private:
  std::map<std::string, std::string> map_;
};

}  // namespace iotdb

#endif  // IOTDB_COMMON_PROPERTIES_H_
