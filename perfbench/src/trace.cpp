#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::name_id(const std::string& name) {
  const auto [it, fresh] = ids_.emplace(name, static_cast<int>(names_.size()));
  if (fresh) names_.push_back(name);
  return it->second;
}

int Tracer::begin(int name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  open_.pop_back();
}

void Tracer::write_jsonl(const std::string& path,
                         const std::string& workload) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"workload\":\"" << workload << "\",\"run\":" << s.run
        << ",\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << names_[static_cast<std::size_t>(s.name)]
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

std::map<std::string, SpanStats> aggregate(const Tracer& t, int run) {
  const std::vector<Span>& spans = t.spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.run == run && s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.run != run) continue;
    const double len = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    SpanStats& st = out[t.names()[static_cast<std::size_t>(s.name)]];
    ++st.calls;
    st.busy_s += len;
    st.self_s += len - child_s[i];
    st.durations_s.push_back(len);
  }
  return out;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

}  // namespace perfbench
