#include "common.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace e2e {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string name = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "1";
    }
  }
}

std::string Flags::Str(const std::string& name, const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

double Flags::Num(const std::string& name, double def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::atof(it->second.c_str());
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  bool ok = std::fclose(f) == 0 && written == content.size();
  return ok;
}

bool ReadFile(const std::string& path, std::string* content) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *content = os.str();
  return true;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  if (rank > 0) --rank;
  rank = std::min(rank, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

uint64_t Fnv1a(const std::string& data, uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonQuote(value));
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace e2e
