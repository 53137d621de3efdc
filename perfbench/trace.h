// In-memory span recorder for the traced profile.  Spans nest through a
// stack (the profile is single-threaded), carry an optional window index
// and named integer counters, and are written out only at the end.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace msamp::perfbench {

/// Monotonic wall-clock nanoseconds: the benchmark's one clock.
std::int64_t steady_ns();

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 at top level
  int window = -1;  ///< canonical window index, -1 when not per-window
  std::vector<std::pair<std::string, std::int64_t>> counters;
};

class Tracer {
 public:
  Tracer();

  /// Nanoseconds since construction (steady clock).
  std::int64_t now_ns() const;

  /// Opens a span under the innermost open one and returns its id.
  int begin(std::string name, int window = -1);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);
  void add_counter(int id, std::string name, std::int64_t value);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per span name: duration minus the time its child spans
  /// cover, summed over all spans of that name.
  std::map<std::string, std::int64_t> self_ns_by_name() const;

  /// Writes the spans as Chrome trace-event JSON (Perfetto opens it).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t epoch_ns_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op that never reads a clock.
class Span {
 public:
  Span(Tracer* tracer, std::string name, int window = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), window) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace msamp::perfbench
