#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file report.hpp
/// The result line every run ends with:
///   {"correct": ..., "attempted": n, "failed": n, "metrics": {name: {value, unit}}}

namespace perfbench {

class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// Counts one operation; \p ok false counts it failed too.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Writes the result line to stdout. correct = no failed operation.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
