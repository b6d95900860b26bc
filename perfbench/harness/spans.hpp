#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

/// \file spans.hpp
/// In-memory span recording for the traced run. A span is (name, start,
/// end, parent, operation id); spans of one benchmark operation share the
/// operation id. Nothing is written until the run ends. A layer's self time
/// is its span's duration minus the part of that interval its children
/// cover, so nested and overlapping children are never counted twice.

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the tracer's spans; -1 = root
  std::uint32_t op = 0;
};

/// Duration of [start, end] minus the union of \p children clipped to it.
std::int64_t self_time(std::int64_t start, std::int64_t end,
                       std::vector<std::pair<std::int64_t, std::int64_t>> children);

/// Single-threaded span recorder: begin() nests under the innermost open
/// span.
class Tracer {
 public:
  std::int32_t begin(const char* name, std::uint32_t op);
  void end(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, indexed like spans().
  std::vector<std::int64_t> self_times() const;

  /// Summed self time and span count per span name.
  struct Total {
    std::int64_t self_ns = 0;
    std::size_t count = 0;
  };
  std::map<std::string, Total> totals() const;

  /// One JSON object per line: name, start_ns, end_ns, parent, op.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t op)
      : tracer_(tracer), id_(tracer.begin(name, op)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

}  // namespace perfbench
