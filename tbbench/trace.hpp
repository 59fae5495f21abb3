#pragma once

/// \file trace.hpp
/// \brief In-memory span and counter recorder for the traced benchmark run.
///
/// A span is (name, start, end, parent span, step id).  Spans are opened and
/// closed by the benchmark's own code around each call into a layer; the
/// library itself is not instrumented.  Everything stays in memory until
/// write_json() is called once at exit.  With tracing off (g_tracer null)
/// a SpanScope is a single branch.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace tbbench {

struct Span {
  const char* name;  ///< static string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the span vector; -1 for a root span
  long step = -1;   ///< MD step id; -1 outside the MD phase
};

struct Counter {
  const char* name;
  double value = 0.0;
  long step = -1;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.step = step_;
    s.start_ns = now_ns();
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  void count(const char* name, double value) {
    counters_.push_back({name, value, step_});
  }

  /// Step id stamped on spans and counters opened from now on.
  void set_step(long step) { step_ = step; }

  void write_json(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "[\"" << s.name << "\", " << s.start_ns
         << ", " << s.end_ns << ", " << s.parent << ", " << s.step << "]";
    }
    os << "],\n\"counters\": [";
    os.precision(17);
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      const Counter& c = counters_[i];
      os << (i ? ",\n" : "\n") << "[\"" << c.name << "\", " << c.value << ", "
         << c.step << "]";
    }
    os << "]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  std::vector<int> stack_;
  long step_ = -1;
};

/// The active tracer of a traced run; null in the untraced run.
inline Tracer* g_tracer = nullptr;

/// RAII span on g_tracer (no-op when tracing is off).
class SpanScope {
 public:
  explicit SpanScope(const char* name)
      : id_(g_tracer != nullptr ? g_tracer->open(name) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) g_tracer->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

inline void count(const char* name, double value) {
  if (g_tracer != nullptr) g_tracer->count(name, value);
}

}  // namespace tbbench
