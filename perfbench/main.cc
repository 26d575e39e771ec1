// The p2mon benchmark binary. Normally started through perfbench/run.py,
// which builds it first:
//
//   p2bench --workload
//       <paper_forensics|chord_fleet_32|chord_fleet_sharded[_32]|udp_dht|all>
//           --seed N --seconds S --trace 0|1 [--commit ID] [--out-dir DIR]
//
// --trace 0 runs the untraced pass and reports the end-to-end metrics.
// --trace 1 runs the untraced pass (in a child process), then a traced pass of
// the same seed, checks that the deterministic counters of the two agree, and
// reports the per-layer metrics (spans go to DIR/spans-<workload>-<seed>.jsonl).
// The last line of stdout is the JSON result; exit 1 when any gate fails.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

#ifndef P2BENCH_BUILD_TYPE
#define P2BENCH_BUILD_TYPE "unknown"
#endif

namespace p2bench {
namespace {

struct Options {
  RunArgs run;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".";
};

void PrintHeader(const Options& o) {
  printf("# p2mon benchmark: workload=%s seed=%llu seconds=%d trace=%d\n",
         o.run.workload.c_str(), static_cast<unsigned long long>(o.run.seed),
         o.run.seconds, o.trace ? 1 : 0);
  printf("# commit=%s build_type=%s compiler=\"%s\" nproc=%u\n", o.commit.c_str(),
         P2BENCH_BUILD_TYPE, __VERSION__, std::thread::hardware_concurrency());
  printf("# params: %s\n", WorkloadParams(o.run.workload, o.run.seconds).c_str());
}

double PerSimS(double v, const Pass& p) {
  return p.window_sim_s > 0 ? v / p.window_sim_s : 0;
}

// Latency series the output names but the JSON does not carry (they exist on
// one workload only), with their percentile and sample count.
void PrintLatencies(const Pass& p) {
  LatencySummary op = Summarize(p.op_ms);
  printf("  ops: %s, %zu samples, p50 %s ms, p%s %s ms\n", p.op_name.c_str(), op.count,
         FormatNumber(op.p50).c_str(), FormatNumber(op.tail_pct).c_str(),
         FormatNumber(op.tail).c_str());
  for (const auto& [name, series] : p.latency_ms) {
    LatencySummary s = Summarize(series);
    printf("  %s_ms: %zu samples, p50 %s ms, p%s %s ms (lower)\n", name.c_str(), s.count,
           FormatNumber(s.p50).c_str(), FormatNumber(s.tail_pct).c_str(),
           FormatNumber(s.tail).c_str());
  }
  printf("  ops_failed_frac: %s (%llu of %llu) (lower)\n",
         FormatNumber(p.attempted > 0 ? static_cast<double>(p.failed) /
                                            static_cast<double>(p.attempted)
                                      : 0)
             .c_str(),
         static_cast<unsigned long long>(p.failed),
         static_cast<unsigned long long>(p.attempted));
}

std::vector<Metric> EndToEnd(const Pass& p) {
  LatencySummary op = Summarize(p.op_ms);
  return {
      {"setup_s", p.setup_s, "s", "lower"},
      {"wall_ms_per_sim_s", PerSimS(p.window_wall_s * 1e3, p), "ms", "lower"},
      {"cpu_ms_per_sim_s", PerSimS(p.window_cpu_s * 1e3, p), "ms", "lower"},
      {"op_ms_p50", op.p50, "ms", "lower"},
      {"op_ms_tail", op.tail, "ms", "lower"},
      {"tx_msgs_per_sim_s", PerSimS(static_cast<double>(p.tx_msgs), p), "msgs", "lower"},
      {"wire_kb_per_sim_s", PerSimS(static_cast<double>(p.wire_bytes) / 1024.0, p), "KB",
       "lower"},
      {"live_tuples", static_cast<double>(p.live_tuples), "rows", "lower"},
      {"peak_rss_mb", p.peak_rss_mb, "MB", "lower"},
  };
}

void PrintFailures(const Pass& p, const char* label) {
  for (const std::string& f : p.failures) {
    printf("  GATE FAILED (%s): %s\n", label, f.c_str());
  }
}

// What the traced run needs from the untraced pass of the same seed.
struct UntracedSummary {
  bool ok = false;
  double window_cpu_s = 0;
  std::map<std::string, uint64_t> deterministic;
};

// Runs the untraced pass and prints its end-to-end section.
Pass RunUntraced(const Options& o) {
  Pass pass = RunPass(o.run, nullptr);
  PrintFailures(pass, "untraced");
  printf("untraced pass (end-to-end):\n%s", MetricLines(EndToEnd(pass)).c_str());
  PrintLatencies(pass);
  fflush(stdout);
  return pass;
}

// The traced run compares against an untraced pass of the same seed. That pass
// runs in a forked child, so each pass starts from an unused heap: a second
// fleet built in the same process runs measurably slower than the first, which
// would otherwise read as tracing overhead.
UntracedSummary RunUntracedInChild(const Options& o) {
  UntracedSummary summary;
  fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) {
    return summary;
  }
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return summary;
  }
  if (pid == 0) {
    close(fds[0]);
    Pass pass = RunUntraced(o);
    std::string out = "ok " + std::to_string(pass.failures.empty() ? 1 : 0) + "\n";
    out += "cpu " + FormatNumber(pass.window_cpu_s) + "\n";
    for (const auto& [name, value] : pass.deterministic) {
      out += "det " + name + " " + std::to_string(value) + "\n";
    }
    bool written = write(fds[1], out.data(), out.size()) == static_cast<ssize_t>(out.size());
    close(fds[1]);
    _exit(written ? 0 : 1);
  }
  close(fds[1]);
  std::string in;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    in.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return summary;
  }
  std::istringstream lines(in);
  std::string tag;
  while (lines >> tag) {
    if (tag == "ok") {
      int ok = 0;
      lines >> ok;
      summary.ok = ok == 1;
    } else if (tag == "cpu") {
      lines >> summary.window_cpu_s;
    } else if (tag == "det") {
      std::string name;
      uint64_t value = 0;
      lines >> name >> value;
      summary.deterministic[name] = value;
    }
  }
  return summary;
}

// Runs one workload; returns its result line.
Result RunWorkload(const Options& o) {
  PrintHeader(o);
  Result result;
  if (!o.trace) {
    Pass pass = RunUntraced(o);
    result.correct = pass.failures.empty();
    result.attempted = pass.attempted;
    result.failed = pass.failed;
    result.metrics = EndToEnd(pass);
    return result;
  }
  UntracedSummary untraced = RunUntracedInChild(o);
  SpanRecorder spans;
  Pass traced = RunPass(o.run, &spans);
  PrintFailures(traced, "traced");
  result.correct = untraced.ok && traced.failures.empty();
  result.attempted = traced.attempted;
  result.failed = traced.failed;
  if (!untraced.ok) {
    printf("  GATE FAILED: the untraced pass did not complete cleanly\n");
  } else if (untraced.deterministic != traced.deterministic) {
    result.correct = false;
    printf("  GATE FAILED: deterministic counters differ between two runs of seed %llu\n",
           static_cast<unsigned long long>(o.run.seed));
    for (const auto& [name, value] : traced.deterministic) {
      printf("    %s: untraced %llu, traced %llu\n", name.c_str(),
             static_cast<unsigned long long>(untraced.deterministic[name]),
             static_cast<unsigned long long>(value));
    }
  }
  result.metrics = traced.layer;
  result.metrics.push_back({"bench.trace_overhead_frac",
                            untraced.window_cpu_s > 0
                                ? traced.window_cpu_s / untraced.window_cpu_s - 1
                                : 0,
                            "ratio", "lower"});
  printf("traced pass (per-layer):\n%s", MetricLines(result.metrics).c_str());
  PrintLatencies(traced);
  std::string path = o.out_dir + "/spans-" + o.run.workload + "-" +
                     std::to_string(o.run.seed) + ".jsonl";
  if (spans.WriteJsonl(path)) {
    printf("  spans: %zu written to %s\n", spans.spans().size(), path.c_str());
  } else {
    result.correct = false;
    printf("  GATE FAILED: could not write spans to %s\n", path.c_str());
  }
  return result;
}

int Usage() {
  fprintf(stderr,
          "usage: p2bench --workload "
          "<paper_forensics|chord_fleet_32|chord_fleet_sharded[_32]|udp_dht|all> "
          "--seed N --seconds S --trace 0|1 [--commit ID] [--out-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  fprintf(stderr, "p2bench: refusing to report from an unoptimised build (%s)\n",
          P2BENCH_BUILD_TYPE);
  return 2;
#endif
  Options o;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      o.run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.run.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--commit") {
      o.commit = value;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || o.run.seconds < 1) {
    return Usage();
  }
  std::vector<std::string> workloads;
  if (workload == "all") {
    workloads = WorkloadNames();
  } else {
    for (const std::string& name : WorkloadNames()) {
      if (name == workload) {
        workloads.push_back(name);
      }
    }
  }
  if (workloads.empty()) {
    return Usage();
  }
  bool all_correct = true;
  for (const std::string& name : workloads) {
    o.run.workload = name;
    Result result = RunWorkload(o);
    all_correct = all_correct && result.correct;
    printf("%s\n", ResultJson(result).c_str());
    fflush(stdout);
  }
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace p2bench

int main(int argc, char** argv) { return p2bench::Main(argc, argv); }
