// perfbench_driver: one repetition of one publish->notify workload.
//
//   perfbench_driver --workload storm|flood|churn --seed N
//                    [--trace] [--trace-out FILE] [--drop-one] [--no-brute]
//
// Prints one JSON line (end-to-end metrics, per-layer metrics when traced,
// and the correctness tally) and exits 1 when any correctness check fails,
// 2 on bad arguments. perfbench/run.py drives it; see that file.
#include <cstdio>
#include <cstring>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace-out" && has_value) {
      opts.trace_out = argv[++i];
    } else if (arg == "--trace") {
      opts.trace = true;
    } else if (arg == "--drop-one") {
      opts.drop_one = true;
    } else if (arg == "--no-brute") {
      opts.full_oracle = false;
    } else {
      std::fprintf(stderr, "perfbench_driver: bad argument '%s'\n", argv[i]);
      return 2;
    }
  }

  perfbench::Report report;
  perfbench::Tally tally;
  if (opts.workload == "storm") {
    perfbench::run_storm(opts, report, tally);
  } else if (opts.workload == "flood") {
    perfbench::run_flood(opts, report, tally);
  } else if (opts.workload == "churn") {
    perfbench::run_churn(opts, report, tally);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.json(opts, tally).c_str());
  return tally.failed() == 0 && tally.attempted > 0 ? 0 : 1;
}
