#ifndef TAURUS_BENCH_BENCH_JSON_REPORTER_H_
#define TAURUS_BENCH_BENCH_JSON_REPORTER_H_

#include <benchmark/benchmark.h>

#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace taurus_bench {

/// ConsoleReporter that also collects one (name, ms-per-iteration) metric
/// per run, plus one metric per user counter, so google-benchmark benches
/// emit the same flat BENCH_<name>.json schema the hand-rolled benches
/// write through WriteBenchJson (micro_parallel_exec,
/// table1_compile_overhead).
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      // real_accumulated_time is seconds over all iterations.
      double ms = run.real_accumulated_time * 1e3;
      if (run.iterations > 0) ms /= static_cast<double>(run.iterations);
      const std::string key = MetricKey(run.benchmark_name());
      metrics_.emplace_back(key + "_ms", ms);
      // "BM_X/4" counter "partitions" -> "x_4_partitions".
      for (const auto& [counter, value] : run.counters) {
        metrics_.emplace_back(key + "_" + counter, value.value);
      }
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

 private:
  /// "BM_HashJoin/4096" -> "hash_join_4096": a flat JSON key stem that
  /// stays stable across benchmark-library versions.
  static std::string MetricKey(const std::string& name) {
    std::string n = name;
    if (n.rfind("BM_", 0) == 0) n = n.substr(3);
    std::string key;
    for (size_t i = 0; i < n.size(); ++i) {
      unsigned char c = static_cast<unsigned char>(n[i]);
      if (std::isalnum(c)) {
        if (std::isupper(c) && !key.empty() && key.back() != '_' &&
            !std::isupper(static_cast<unsigned char>(n[i - 1]))) {
          key.push_back('_');
        }
        key.push_back(static_cast<char>(std::tolower(c)));
      } else if (!key.empty() && key.back() != '_') {
        key.push_back('_');
      }
    }
    while (!key.empty() && key.back() == '_') key.pop_back();
    return key;
  }

  std::vector<std::pair<std::string, double>> metrics_;
};

/// Drop-in BENCHMARK_MAIN() replacement that adds the repo-wide --json
/// flag: the flag is stripped before benchmark::Initialize (which rejects
/// flags it does not know) and BENCH_<name>.json is written after the run.
inline int GBenchJsonMain(int argc, char** argv, const char* name) {
  bool want_json = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      want_json = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  char arg0_default[] = "benchmark";
  if (args.empty()) args.push_back(arg0_default);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (want_json) WriteBenchJson(name, reporter.metrics());
  return 0;
}

}  // namespace taurus_bench

#endif  // TAURUS_BENCH_BENCH_JSON_REPORTER_H_
