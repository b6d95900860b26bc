#include "common/harness.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace planetp::bench {

namespace {

/// The number after the top-level-looking `"key":` in the baseline text, or
/// nullopt when the key is absent or its value does not parse as a number.
std::optional<double> baseline_number(const std::string& json, const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  for (std::size_t at = json.find(quoted); at != std::string::npos;
       at = json.find(quoted, at + 1)) {
    std::size_t i = at + quoted.size();
    while (i < json.size() && std::isspace(static_cast<unsigned char>(json[i]))) ++i;
    if (i == json.size() || json[i] != ':') continue;  // a string value, not a key
    const char* start = json.c_str() + i + 1;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start || !std::isfinite(v)) return std::nullopt;
    return v;
  }
  return std::nullopt;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned hardware_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

MemSample sample_memory() {
  MemSample s;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return s;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      s.vm_rss_kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
    } else if (std::strncmp(line, "VmHWM:", 6) == 0) {
      s.vm_hwm_kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
    }
  }
  std::fclose(f);
  return s;
}

bool Args::has(std::string_view flag) const {
  return std::find(flags.begin(), flags.end(), flag) != flags.end();
}

std::optional<Args> parse_args(int argc, const char* const* argv,
                               std::initializer_list<std::string_view> extra_flags,
                               std::string* error) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--baseline") {
      if (i + 1 == argc) {
        *error = "--baseline needs a file";
        return std::nullopt;
      }
      args.baseline_path = argv[++i];
    } else if (std::find(extra_flags.begin(), extra_flags.end(), arg) != extra_flags.end()) {
      args.flags.emplace_back(arg);
    } else {
      *error = "unknown flag " + std::string(arg);
      return std::nullopt;
    }
  }
  return args;
}

Args parse_args_or_exit(const char* bench, int argc, const char* const* argv,
                        std::initializer_list<std::string_view> extra_flags) {
  std::string error;
  std::optional<Args> args = parse_args(argc, argv, extra_flags, &error);
  if (args) return *std::move(args);
  std::string usage = std::string("usage: ") + bench + " [--quick] [--baseline <file>]";
  for (const std::string_view flag : extra_flags) usage += " [" + std::string(flag) + "]";
  std::fprintf(stderr, "%s: %s\n%s\n", bench, error.c_str(), usage.c_str());
  std::exit(2);
}

Report::Report(std::string bench, const Args& args)
    : bench_(std::move(bench)), quick_(args.quick), baseline_path_(args.baseline_path) {}

void Report::raw(std::string key, std::string json) {
  members_.emplace_back(std::move(key), std::move(json));
}

void Report::floor(std::string key, double measured) {
  gates_.push_back({key, measured, true});
  value(std::move(key), measured);
}

void Report::ceiling(std::string key, double measured) {
  gates_.push_back({key, measured, false});
  value(std::move(key), measured);
}

void Report::fail(const char* fmt, ...) {
  failed_ = true;
  std::fputs("FAIL: ", stderr);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\n  \"bench\": \"" << bench_ << "\",\n  \"quick\": " << (quick_ ? "true" : "false")
     << ",\n  \"hardware_threads\": " << hardware_threads();
  for (const auto& [key, json] : members_) os << ",\n  \"" << key << "\": " << json;
  os << "\n}\n";
  return os.str();
}

int Report::check_baseline() const {
  if (baseline_path_.empty()) return 0;
  std::ifstream in(baseline_path_);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s\n", baseline_path_.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string baseline = buf.str();
  int rc = 0;
  for (const Gate& g : gates_) {
    const std::optional<double> recorded = baseline_number(baseline, g.key);
    if (!recorded || *recorded <= 0.0) {
      std::fprintf(stderr, "FAIL: baseline %s has no positive number for \"%s\"\n",
                   baseline_path_.c_str(), g.key.c_str());
      rc = 1;
    } else if (g.is_floor ? g.measured < *recorded / 2.0 : g.measured > *recorded * 2.0) {
      std::fprintf(stderr, "FAIL: %s regressed: %.1f vs baseline %.1f (%s)\n", g.key.c_str(),
                   g.measured, *recorded, g.is_floor ? ">2x drop" : ">2x growth");
      rc = 1;
    } else {
      std::printf("baseline check %s: %.1f vs recorded %.1f — ok\n", g.key.c_str(), g.measured,
                  *recorded);
    }
  }
  return rc;
}

int Report::finish() const {
  const std::string file = "BENCH_" + bench_ + ".json";
  std::ofstream(file) << json();
  std::printf("wrote %s\n", file.c_str());
  const int rc = check_baseline();
  return failed_ || rc != 0 ? 1 : 0;
}

}  // namespace planetp::bench
