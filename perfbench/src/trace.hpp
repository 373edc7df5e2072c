// In-memory span recorder for the traced benchmark driver.
//
// A span is one call into a layer of the library, timed from outside it:
// name, start, end, the span that was open when it began (its parent),
// and the id of the traced run it belongs to. Spans are appended to a
// vector while the traced driver runs and only written out (JSONL) when the
// benchmark ends, so recording costs two clock reads and a push_back.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int name = 0;      // index into Tracer::names()
  int parent = -1;   // index of the enclosing span, -1 for a root
  int run = 0;       // traced run id
  std::int64_t start_ns = 0;  // steady_clock, relative to the tracer epoch
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer();

  // Interns a span name; look names up once, outside the timed loops.
  int name_id(const std::string& name);
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  // Starts a new traced run: later spans carry its id.
  void next_run() { ++run_; }
  [[nodiscard]] int run() const { return run_; }

  // RAII span: begins on construction, ends on destruction, so spans
  // always close innermost first.
  class Scope {
   public:
    Scope(Tracer& t, int name) : t_(t), span_(t.begin(name)) {}
    ~Scope() { t_.end(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int span_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Writes one JSON object per span (see perfbench/README.md).
  void write_jsonl(const std::string& path, const std::string& workload) const;

 private:
  int begin(int name);
  void end(int span);
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
  int run_ = 0;
};

// Per-name totals of one traced run.
struct SpanStats {
  long calls = 0;
  double busy_s = 0.0;  // sum of span lengths
  double self_s = 0.0;  // sum of span lengths minus their children's
  std::vector<double> durations_s;
};

// Aggregates the spans of traced run `run` by name. Children of a span
// never overlap (the driver is single-threaded), so a span's self time is
// its length minus the summed lengths of its direct children.
std::map<std::string, SpanStats> aggregate(const Tracer& t, int run);

// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when empty.
double percentile(std::vector<double> xs, double q);

}  // namespace perfbench
