#include "trace.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "json.h"

namespace msamp::perfbench {

std::int64_t steady_ns() {
  const auto now = std::chrono::steady_clock::now();  // msamp-lint: allow(nondet-time)
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

std::int64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

int Tracer::begin(std::string name, int window) {
  SpanRecord s;
  s.name = std::move(name);
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.window = window;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span " + std::to_string(id) + " closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

void Tracer::add_counter(int id, std::string name, std::int64_t value) {
  spans_[static_cast<std::size_t>(id)].counters.emplace_back(std::move(name),
                                                             value);
}

std::map<std::string, std::int64_t> Tracer::self_ns_by_name() const {
  // Children nest strictly inside their parent and never overlap each
  // other (one thread), so the covered time is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::int64_t> out;
  for (const SpanRecord& s : spans_) {
    out[s.name] += s.end_ns - s.start_ns - child_ns[static_cast<std::size_t>(s.id)];
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"name\":" << json::quote(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << json::number(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":"
        << json::number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"window\":" << s.window;
    for (const auto& [name, value] : s.counters) {
      out << "," << json::quote(name) << ":" << value;
    }
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace msamp::perfbench
