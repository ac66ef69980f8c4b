// Shared helpers of the end-to-end benchmark tool: flags, files, clocks,
// percentiles and a flat JSON object writer.

#ifndef WIKIMATCH_E2EBENCH_COMMON_H_
#define WIKIMATCH_E2EBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// `--name value` flags after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Str(const std::string& name, const std::string& def = "") const;
  double Num(const std::string& name, double def) const;
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

bool WriteFile(const std::string& path, const std::string& content);
bool ReadFile(const std::string& path, std::string* content);
std::vector<std::string> ReadLines(const std::string& path);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q);

/// 64-bit FNV-1a, chained through `h`.
uint64_t Fnv1a(const std::string& data, uint64_t h = 1469598103934665603ULL);

/// Flat JSON object; numbers keep full precision.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, uint64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonQuote(const std::string& s);

}  // namespace e2e

#endif  // WIKIMATCH_E2EBENCH_COMMON_H_
