// The one record every bench/ binary and `simfuzz --bench` writes:
// BENCH_<name>.json in the working directory (or $P2_BENCH_OUT_DIR).
// bench_micro_engine keeps Google Benchmark's own JSON.
//
//   {"bench": "fig4_periodic_rules", "schema": "p2mon-bench-v2", "commit": "...",
//    "build_type": "RelWithDebInfo", "compiler": "gcc 12.2.0", "nproc": 4,
//    "params": {"nodes": 21, "formation_s": 40, "arm_s": 5, "window_s": 120},
//    "rows": [{"series": "periodic", "x": "50", "metrics": {
//      "cpu_ms_per_s": {"value": 0.27, "unit": "ms/s", "better": "lower",
//                       "kind": "budget", "tolerance": 3},
//      "tx_msgs": {"value": 44014, "unit": "msgs", "better": "lower",
//                  "kind": "exact"}, ...}}, ...]}
//
// A metric is one quantity under its own name and unit, shaped like perfbench's
// metric line. Its kind says how bench/check_regression.py gates it against a
// baseline: `exact` (a determinism column) must equal the baseline, `budget` (a
// wall-clock cost) may reach `tolerance` times the baseline, `info` is reported
// only. Names, units and labels are plain identifiers; nothing is escaped.

#ifndef BENCH_BENCH_ARTIFACT_H_
#define BENCH_BENCH_ARTIFACT_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef P2_BUILD_TYPE
#define P2_BUILD_TYPE "unknown"
#endif

namespace p2 {

// Allowed growth of a budget metric over its baseline. Back-to-back runs of one
// build on one 4-core host spread up to 1.5x (fig4 cpu_ms_per_s), and a
// RelWithDebInfo build reads 1.5-2.0x a Release one; the whole-table walks the
// logging gate exists to catch read 10-17x.
inline constexpr double kBudgetTolerance = 3.0;

// Shortest decimal that reads back as `v`, never in exponent form for whole
// numbers; JSON has no NaN or infinity.
inline std::string BenchNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  double magnitude = std::fabs(v);
  int digits = magnitude >= 1 ? static_cast<int>(std::log10(magnitude)) + 1 : 1;
  char buf[32];
  for (int precision = std::min(digits, 17); precision <= 17; ++precision) {
    snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) {
      break;
    }
  }
  return buf;
}

// One measurement point: a (series, x) key and its named metrics.
class BenchRow {
 public:
  BenchRow(std::string series, std::string x)
      : series_(std::move(series)), x_(std::move(x)) {}

  BenchRow& Exact(const std::string& name, double value, const std::string& unit,
                  const std::string& better = "lower") {
    return Put(name, value, unit, better, "exact");
  }
  BenchRow& Budget(const std::string& name, double value, const std::string& unit) {
    return Put(name, value, unit, "lower", "budget");
  }
  BenchRow& Info(const std::string& name, double value, const std::string& unit,
                 const std::string& better) {
    return Put(name, value, unit, better, "info");
  }

  // The value recorded under `name`, NaN when there is none.
  double Value(const std::string& name) const {
    for (const auto& [n, v] : values_) {
      if (n == name) {
        return v;
      }
    }
    return NAN;
  }

 private:
  friend class BenchArtifact;

  BenchRow& Put(const std::string& name, double value, const std::string& unit,
                const std::string& better, const std::string& kind) {
    values_.emplace_back(name, value);
    json_ += std::string(json_.empty() ? "" : ",") + "\n    \"" + name +
             "\": {\"value\": " + BenchNumber(value) + ", \"unit\": \"" + unit +
             "\", \"better\": \"" + better + "\", \"kind\": \"" + kind + "\"" +
             (kind == "budget" ? ", \"tolerance\": " + BenchNumber(kBudgetTolerance)
                               : "") +
             "}";
    return *this;
  }

  std::string series_;
  std::string x_;
  std::vector<std::pair<std::string, double>> values_;
  std::string json_;
};

class BenchArtifact {
 public:
  explicit BenchArtifact(std::string name) : name_(std::move(name)) {}

  // Every parameter that shaped the run; check_regression.py refuses to compare
  // artifacts whose parameters differ.
  BenchArtifact& Param(const std::string& key, double value) {
    params_ += (params_.empty() ? "\"" : ", \"") + key + "\": " + BenchNumber(value);
    return *this;
  }
  BenchArtifact& Param(const std::string& key, const std::string& value) {
    params_ += (params_.empty() ? "\"" : ", \"") + key + "\": \"" + value + "\"";
    return *this;
  }

  // Records `row` and prints it, under a header whenever the metric names change.
  void Add(const BenchRow& row) {
    char cell[96];
    snprintf(cell, sizeof(cell), "%-10s %-9s", "series", "x");
    std::string header = cell;
    snprintf(cell, sizeof(cell), "%-10s %-9s", row.series_.c_str(), row.x_.c_str());
    std::string line = cell;
    for (const auto& [name, value] : row.values_) {
      int width = std::max(static_cast<int>(name.size()), 10);
      snprintf(cell, sizeof(cell), " %*s", width, name.c_str());
      header += cell;
      snprintf(cell, sizeof(cell), " %*.6g", width, value);
      line += cell;
    }
    if (header != last_header_) {
      printf("%s\n", header.c_str());
      last_header_ = header;
    }
    printf("%s\n", line.c_str());
    rows_ += std::string(rows_.empty() ? "" : ",") + "\n  {\"series\": \"" +
             row.series_ + "\", \"x\": \"" + row.x_ + "\", \"metrics\": {" + row.json_ +
             "}}";
  }

  // Writes BENCH_<name>.json; prints the path (or the failure) to stderr.
  bool Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    if (const char* dir = std::getenv("P2_BENCH_OUT_DIR")) {
      path = std::string(dir) + "/" + path;
    }
    std::string out = "{\"bench\": \"" + name_ + "\", \"schema\": \"p2mon-bench-v2\"" +
                      ", \"commit\": \"" + Commit() +
                      "\", \"build_type\": \"" P2_BUILD_TYPE "\", \"compiler\": \"" +
#if defined(__clang__)
                      "clang " __clang_version__ +
#else
                      "gcc " __VERSION__ +
#endif
                      "\", \"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ",\n \"params\": {" + params_ + "},\n \"rows\": [" + rows_ +
                      "\n]}\n";
    fflush(stdout);
    FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr && std::fputs(out.c_str(), f) >= 0;
    if (f == nullptr || std::fclose(f) != 0 || !ok) {
      fprintf(stderr, "bench artifact: cannot write %s\n", path.c_str());
      return false;
    }
    fprintf(stderr, "bench artifact: wrote %s\n", path.c_str());
    return true;
  }

 private:
  // The source tree's commit, "-dirty" when it has uncommitted changes.
  static std::string Commit() {
    std::string out;
#ifdef P2_SOURCE_DIR
    if (FILE* p = popen("git -C '" P2_SOURCE_DIR
                        "' describe --always --dirty --abbrev=12 2>/dev/null",
                        "r")) {
      char buf[128];
      while (fgets(buf, sizeof(buf), p) != nullptr) {
        out += buf;
      }
      pclose(p);
    }
#endif
    out.erase(out.find_last_not_of("\r\n") + 1);
    return out.empty() ? "unknown" : out;
  }

  std::string name_;
  std::string params_;
  std::string rows_;
  std::string last_header_;
};

}  // namespace p2

#endif  // BENCH_BENCH_ARTIFACT_H_
