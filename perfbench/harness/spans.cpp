#include "harness/spans.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

std::int64_t self_time(std::int64_t start, std::int64_t end,
                       std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (auto [s, e] : children) {
    s = std::max(s, start);
    e = std::min(e, end);
    if (e <= s) continue;
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return (end - start) - covered;
}

std::int32_t Tracer::begin(const char* name, std::uint32_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (open_.empty() || open_.back() != id) throw std::logic_error("span closed out of order");
  open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_times() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[i] = self_time(spans_[i].start_ns, spans_[i].end_ns, std::move(children[i]));
  }
  return out;
}

std::map<std::string, Tracer::Total> Tracer::totals() const {
  std::map<std::string, Total> out;
  const auto self = self_times();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Total& t = out[spans_[i].name];
    t.self_ns += self[i];
    ++t.count;
  }
  return out;
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << "}\n";
  }
}

}  // namespace perfbench
