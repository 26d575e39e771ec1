// Tests of the benchmark's own measurement helpers (perfbench/harness.h).
// Build and run: python3 perfbench/run.py --selftest

#include "perfbench/harness.h"

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace p2bench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // descending: Percentile must sort
  }
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_EQ(Percentile(OneTo(100), 90), 90);
  EXPECT_EQ(Percentile(OneTo(100), 99), 99);
  EXPECT_EQ(Percentile(OneTo(1000), 99.9), 999);
  EXPECT_EQ(Percentile(OneTo(10), 0), 1);
  EXPECT_EQ(Percentile(OneTo(10), 100), 10);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 50);
  EXPECT_EQ(TailPercentile(19), 50);  // 19 * 0.25 = 4.75 samples beyond p75
  EXPECT_EQ(TailPercentile(39), 50);  // 9.75 beyond p75: not enough
  EXPECT_EQ(TailPercentile(40), 75);
  EXPECT_EQ(TailPercentile(99), 75);  // 9.9 beyond p90: not enough
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(999), 90);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(9999), 99);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
  EXPECT_EQ(TailPercentile(10000000), 99.99);
}

TEST(Summarize, CarriesCountAndChosenPercentile) {
  LatencySummary s = Summarize(OneTo(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_EQ(s.tail, 990);
  LatencySummary mid = Summarize(OneTo(80));
  EXPECT_EQ(mid.tail_pct, 75);
  EXPECT_EQ(mid.tail, 60);
  LatencySummary small = Summarize(OneTo(30));
  EXPECT_EQ(small.tail_pct, 50);
  EXPECT_EQ(small.tail, small.p50);
}

TEST(OpenLoopClock, LatencyRunsFromTheDueTime) {
  OpenLoopClock clock;
  // Slice 1 covers virtual [10, 11) starting at wall 100; slice 2 virtual
  // [11, 12) starting at wall 101.5 (the host spent 0.5 s between the calls).
  clock.BeginSlice(10.0, 100.0);
  clock.BeginSlice(11.0, 101.5);
  EXPECT_DOUBLE_EQ(clock.DueWall(10.25), 100.25);
  EXPECT_DOUBLE_EQ(clock.DueWall(11.25), 101.75);
  // A request due at 10.25 but sent only at wall 100.45 (the generator ran
  // 200 ms late) and answered at wall 100.5 took 250 ms, not 50 ms.
  EXPECT_NEAR(clock.MsSinceDue(10.25, 100.5), 250.0, 1e-9);
  // Generator lateness is the same difference, taken at the send.
  EXPECT_NEAR(clock.MsSinceDue(10.25, 100.45), 200.0, 1e-9);
  // A reply arriving in a later slice is still measured from the first slice's
  // anchor, host time between the slices included.
  EXPECT_NEAR(clock.MsSinceDue(10.75, 101.6), 850.0, 1e-9);
}

TEST(OpenLoopClock, DueTimesBeforeTheFirstSliceUseItsAnchor) {
  OpenLoopClock clock;
  clock.BeginSlice(5.0, 50.0);
  EXPECT_DOUBLE_EQ(clock.DueWall(4.0), 49.0);
}

Span MakeSpan(int64_t start, int64_t end) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, DurationMinusChildCoverage) {
  Span parent = MakeSpan(0, 100);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(10, 30), MakeSpan(50, 60)}), 70);
  // Overlapping children count their union once.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(10, 40), MakeSpan(20, 50)}), 60);
  // A child sticking out of the parent is clipped to it.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(-20, 10), MakeSpan(90, 150)}), 80);
  // Full coverage leaves no self time; a disjoint child takes none.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(0, 100)}), 0);
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(200, 300)}), 100);
}

TEST(SpanRecorder, NestsBeginEndAndParentsAddedSpans) {
  SpanRecorder spans;
  uint64_t outer = spans.Begin("window");
  uint64_t inner = spans.Begin("runfor");
  spans.End(inner);
  uint64_t added = spans.Add("replay", 5, 9, spans.Current());
  spans.End(outer);
  ASSERT_EQ(spans.spans().size(), 3u);
  EXPECT_EQ(spans.spans()[inner - 1].parent, outer);
  EXPECT_EQ(spans.spans()[added - 1].parent, outer);
  EXPECT_EQ(spans.spans()[outer - 1].parent, 0u);
  EXPECT_EQ(spans.spans()[added - 1].duration_ns(), 4);
  EXPECT_EQ(spans.Current(), 0u);
}

TEST(FormatNumber, RoundTripsExactly) {
  for (double v : {0.0, 1.0, 50.0, 99.9, 1e-7, 0.1 + 0.2, 123456789.125, 6796.7125,
                   1.0 / 3.0, 2.5e17, -4.25}) {
    std::string text = FormatNumber(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
  EXPECT_EQ(FormatNumber(50), "50");
  EXPECT_EQ(FormatNumber(99.9), "99.9");
  EXPECT_EQ(FormatNumber(256), "256");
}

TEST(ResultJson, ExactShape) {
  Result r;
  r.correct = true;
  r.attempted = 1021;
  r.failed = 0;
  r.metrics = {{"setup_s", 0.8127, "s", "lower"}, {"live_tuples", 57875, "rows", "lower"}};
  EXPECT_EQ(ResultJson(r),
            "{\"correct\": true, \"attempted\": 1021, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, "
            "\"live_tuples\": {\"value\": 57875, \"unit\": \"rows\"}}}");
  r.correct = false;
  r.metrics.clear();
  EXPECT_EQ(ResultJson(r),
            "{\"correct\": false, \"attempted\": 1021, \"failed\": 0, \"metrics\": {}}");
}

TEST(MetricLines, NameValueUnitDirection) {
  std::string lines = MetricLines({{"op_ms_p50", 1.5, "ms", "lower"}});
  EXPECT_NE(lines.find("op_ms_p50"), std::string::npos);
  EXPECT_NE(lines.find("1.5"), std::string::npos);
  EXPECT_NE(lines.find("ms"), std::string::npos);
  EXPECT_NE(lines.find("(lower)"), std::string::npos);
}

TEST(StreamSeed, DeterministicAndLabelSeparated) {
  EXPECT_EQ(StreamSeed(7, "fleet"), StreamSeed(7, "fleet"));
  EXPECT_NE(StreamSeed(7, "fleet"), StreamSeed(7, "replay"));
  EXPECT_NE(StreamSeed(7, "fleet"), StreamSeed(8, "fleet"));
}

}  // namespace
}  // namespace p2bench
