#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file harness.hpp
/// Plumbing shared by the baseline-gated benches (search_throughput,
/// gossip_throughput, live_throughput, index_throughput, community_scale,
/// mixed_workload): the command line, the steady clock, process memory
/// sampling, the allocation counter, and the BENCH_<name>.json report whose
/// floor/ceiling declarations are also the baseline gates.
///
/// Baseline gates fail closed: a declared key that the baseline file lacks,
/// or holds as anything but a positive number, fails the run — a gate that
/// silently stops checking is worse than one that stops the build.

namespace planetp::bench {

/// Steady-clock seconds from an arbitrary epoch; only differences mean
/// anything.
double now_s();

/// std::thread::hardware_concurrency(), at least 1.
unsigned hardware_threads();

/// Process memory read from /proc/self/status, in kilobytes: VmRSS (current
/// resident set) and VmHWM (peak resident set — the high-water mark, which
/// survives frees and so attributes per-phase cost when phases run in
/// ascending size order). Zero on platforms without procfs, so gates keyed
/// on them must treat 0 as "unknown", not "tiny".
struct MemSample {
  std::size_t vm_rss_kb = 0;
  std::size_t vm_hwm_kb = 0;
};
MemSample sample_memory();
inline double to_mb(std::size_t kb) { return static_cast<double>(kb) / 1024.0; }

/// Heap allocations made through the global operator new so far in this
/// process. Defined by common/alloc_counter.cpp, which replaces operator
/// new; only a bench that links that file may call it.
std::uint64_t allocations();

/// A gated bench's command line: `--quick`, `--baseline <file>`, and the
/// boolean flags the bench names.
struct Args {
  bool quick = false;
  std::string baseline_path;       ///< empty: no baseline gates
  std::vector<std::string> flags;  ///< the named extra flags that were given

  bool has(std::string_view flag) const;
};

/// Parses argv[1..argc). An unknown flag or a `--baseline` without a path
/// returns nullopt with the reason in *error.
std::optional<Args> parse_args(int argc, const char* const* argv,
                               std::initializer_list<std::string_view> extra_flags,
                               std::string* error);

/// parse_args, or print the reason and the usage line and exit with code 2.
Args parse_args_or_exit(const char* bench, int argc, const char* const* argv,
                        std::initializer_list<std::string_view> extra_flags = {});

/// The bench's BENCH_<name>.json and its pass/fail verdict. The header
/// ("bench", "quick", "hardware_threads") is written for every bench; the
/// members follow in the order they are declared.
class Report {
 public:
  Report(std::string bench, const Args& args);

  /// A top-level member whose value is already JSON text (e.g. an array).
  void raw(std::string key, std::string json);

  /// A top-level number that no baseline gates.
  template <typename T>
  void value(std::string key, T v) {
    std::ostringstream os;
    os << v;
    raw(std::move(key), os.str());
  }

  /// A top-level number gated against the baseline: the run fails when
  /// `measured` is below half the recorded value.
  void floor(std::string key, double measured);
  /// A top-level number gated against the baseline: the run fails when
  /// `measured` is above twice the recorded value.
  void ceiling(std::string key, double measured);

  /// An in-run gate failed: prints "FAIL: <message>" to stderr, and
  /// finish() returns non-zero.
  void fail(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  bool failed() const { return failed_; }

  std::string json() const;

  /// Checks every floor and ceiling against the --baseline file; returns 0
  /// when there is none or every gate holds.
  int check_baseline() const;

  /// Writes BENCH_<name>.json, checks the baseline, and returns the exit
  /// code: 0 when no in-run gate failed and every baseline gate holds.
  int finish() const;

 private:
  struct Gate {
    std::string key;
    double measured = 0.0;
    bool is_floor = true;
  };

  std::string bench_;
  bool quick_ = false;
  std::string baseline_path_;
  std::vector<std::pair<std::string, std::string>> members_;
  std::vector<Gate> gates_;
  bool failed_ = false;
};

}  // namespace planetp::bench
