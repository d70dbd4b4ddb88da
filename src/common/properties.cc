#include "common/properties.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace iotdb {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

Status Properties::ParseText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == '!') continue;
    size_t sep = trimmed.find_first_of("=:");
    if (sep == std::string::npos) {
      return Status::InvalidArgument("properties line " +
                                     std::to_string(lineno) +
                                     " has no separator: " + trimmed);
    }
    std::string key = Trim(trimmed.substr(0, sep));
    std::string value = Trim(trimmed.substr(sep + 1));
    if (key.empty()) {
      return Status::InvalidArgument("properties line " +
                                     std::to_string(lineno) + " has no key");
    }
    map_[key] = value;
  }
  return Status::OK();
}

std::string Properties::Get(const std::string& key,
                            const std::string& def) const {
  auto it = map_.find(key);
  return it == map_.end() ? def : it->second;
}

Result<int64_t> Properties::GetInt(const std::string& key, int64_t def) const {
  auto it = map_.find(key);
  if (it == map_.end()) return def;
  errno = 0;
  char* end = nullptr;
  long long v = strtoll(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("property " + key +
                                   " is not an integer: " + it->second);
  }
  return static_cast<int64_t>(v);
}

Result<double> Properties::GetDouble(const std::string& key,
                                     double def) const {
  auto it = map_.find(key);
  if (it == map_.end()) return def;
  errno = 0;
  char* end = nullptr;
  double v = strtod(it->second.c_str(), &end);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("property " + key +
                                   " is not a number: " + it->second);
  }
  return v;
}

Result<bool> Properties::GetBool(const std::string& key, bool def) const {
  auto it = map_.find(key);
  if (it == map_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return Status::InvalidArgument("property " + key +
                                 " is not a boolean: " + v);
}

std::string Properties::ToText() const {
  std::string out;
  for (const auto& [key, value] : map_) {
    out += key;
    out += "=";
    out += value;
    out += "\n";
  }
  return out;
}

}  // namespace iotdb
