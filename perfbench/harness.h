// Measurement helpers of the p2mon benchmark: percentile choice, open-loop
// request timing, span recording with self time, and the result line.
//
// Everything here is independent of the engine so harness_test.cc can pin it
// down without building a fleet.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace p2bench {

// ---- percentiles ----

// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

// The highest percentile of {50, 75, 90, 99, 99.9, 99.99} that has at least
// ten samples beyond it among `n`: n * (1 - p/100) >= 10. Below 20 samples no
// percentile qualifies and the median is returned, so a tail is never quoted
// from fewer than ten samples.
double TailPercentile(size_t n);

struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double tail_pct = 50;  // which percentile `tail` is (TailPercentile(count))
  double tail = 0;
};
LatencySummary Summarize(const std::vector<double>& samples);

// ---- open-loop timing ----

// Maps virtual due times onto the wall clock for an open-loop generator driven
// by a sequence of RunFor slices. Each slice starts at (virtual, wall) and the
// backend advances virtual time with wall time inside it, so a request due at
// virtual time t inside a slice was due on the wall at
//   slice.wall + (t - slice.virtual).
// Latency is measured from that due time, not from when the generator got
// round to sending, so a stall that delays later sends counts against them.
class OpenLoopClock {
 public:
  // Records a slice anchor; anchors must be added in increasing virtual order.
  void BeginSlice(double virtual_start, double wall_start);
  // Wall time (seconds, same clock as the anchors) at which virtual time `t`
  // was due. Uses the last slice starting at or before `t`.
  double DueWall(double t) const;
  // Milliseconds from the due time of virtual `t` to wall time `wall`.
  double MsSinceDue(double t, double wall) const;

 private:
  struct Anchor {
    double virtual_start;
    double wall_start;
  };
  std::vector<Anchor> anchors_;
};

// ---- spans ----

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Self time of `span`: its duration minus the part of its interval that the
// union of `children` covers (children may overlap each other or stick out of
// the parent; only the covered part inside the parent is subtracted).
int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children);

// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

// In-memory span log of the traced run. Spans nest through Begin/End on the
// recording thread; Add records a span measured elsewhere (an open-loop request
// from its due time to its response). Written out once, at exit.
class SpanRecorder {
 public:
  uint64_t Begin(const std::string& name);
  void End(uint64_t id);
  uint64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
               uint64_t parent);
  // The innermost open span, 0 when none: the parent of a span added now.
  uint64_t Current() const { return open_.empty() ? 0 : open_.back(); }

  const std::vector<Span>& spans() const { return spans_; }
  // Writes one JSON object per span (id, parent, name, start/end/self ns).
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;
};

// Times one call as a span when `spans` is non-null; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* spans, const std::string& name)
      : spans_(spans), id_(spans == nullptr ? 0 : spans->Begin(name)) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) {
      spans_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* spans_;
  uint64_t id_;
};

// ---- result output ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  // "lower" or "higher"
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// Shortest decimal text that reads back as exactly `v` (finite values only).
std::string FormatNumber(double v);

// The single-line JSON object the benchmark prints last:
// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}
std::string ResultJson(const Result& result);

// One human-readable line per metric: name, value, unit, direction.
std::string MetricLines(const std::vector<Metric>& metrics);

// splitmix64 of `seed` mixed with `label`: every input the benchmark generates
// derives from the workload seed through this, one stream per label.
uint64_t StreamSeed(uint64_t seed, const std::string& label);

}  // namespace p2bench

#endif  // PERFBENCH_HARNESS_H_
