#include "perfbench/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace p2bench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p% of samples at or below
  // it. The epsilon keeps 99.9% of 1000 at rank 999 despite 99.9 being inexact.
  double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()) - 1e-9);
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double TailPercentile(size_t n) {
  double best = 50;
  for (double p : {75.0, 90.0, 99.0, 99.9, 99.99}) {
    // Integer test of n * (1 - p/100) >= 10, free of rounding at the boundary.
    double beyond_per_10k = std::round((100.0 - p) * 100.0);
    if (static_cast<double>(n) * beyond_per_10k >= 10.0 * 10000.0) {
      best = p;
    }
  }
  return best;
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.count = samples.size();
  s.p50 = Percentile(samples, 50);
  s.tail_pct = TailPercentile(samples.size());
  s.tail = Percentile(samples, s.tail_pct);
  return s;
}

void OpenLoopClock::BeginSlice(double virtual_start, double wall_start) {
  anchors_.push_back({virtual_start, wall_start});
}

double OpenLoopClock::DueWall(double t) const {
  if (anchors_.empty()) {
    return t;
  }
  auto it = std::upper_bound(
      anchors_.begin(), anchors_.end(), t,
      [](double value, const Anchor& a) { return value < a.virtual_start; });
  const Anchor& a = it == anchors_.begin() ? anchors_.front() : *(it - 1);
  return a.wall_start + (t - a.virtual_start);
}

double OpenLoopClock::MsSinceDue(double t, double wall) const {
  return (wall - DueWall(t)) * 1e3;
}

int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> parts;
  for (const Span& c : children) {
    int64_t lo = std::max(c.start_ns, span.start_ns);
    int64_t hi = std::min(c.end_ns, span.end_ns);
    if (hi > lo) {
      parts.emplace_back(lo, hi);
    }
  }
  std::sort(parts.begin(), parts.end());
  int64_t covered = 0;
  int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : parts) {
    int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return span.duration_ns() - covered;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanRecorder::Begin(const std::string& name) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = Current();
  s.name = name;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void SpanRecorder::End(uint64_t id) {
  spans_[id - 1].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

uint64_t SpanRecorder::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                           uint64_t parent) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return s.id;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::vector<std::vector<Span>> children(spans_.size() + 1);
  for (const Span& s : spans_) {
    children[s.parent].push_back(s);
  }
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << SelfTimeNs(s, children[s.id]) << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

std::string FormatNumber(double v) {
  char buf[40];
  // Start at the integer digit count so that %g never switches to an exponent
  // for a value it could print in full.
  double magnitude = std::fabs(v);
  int digits = magnitude >= 1 ? static_cast<int>(std::log10(magnitude)) + 1 : 1;
  for (int precision = std::min(digits, 17); precision <= 17; ++precision) {
    snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) {
      break;
    }
  }
  return buf;
}

std::string ResultJson(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += i == 0 ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string MetricLines(const std::vector<Metric>& metrics) {
  std::string out;
  char line[160];
  for (const Metric& m : metrics) {
    snprintf(line, sizeof(line), "  %-28s %16s %-6s (%s)\n", m.name.c_str(),
             FormatNumber(m.value).c_str(), m.unit.c_str(), m.better.c_str());
    out += line;
  }
  return out;
}

uint64_t StreamSeed(uint64_t seed, const std::string& label) {
  uint64_t h = seed;
  for (char c : label) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace p2bench
