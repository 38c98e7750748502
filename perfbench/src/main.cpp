// ccperf_perfbench: the repository benchmark. One process runs one workload
// for a fixed time and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 they are its per-layer metrics, from a traced run. Every
// workload reports the same names over its own operations. Usually run
// through perfbench/run.py, which builds this binary first.
//
//   ccperf_perfbench --workload infer|plan|serve --seed N --seconds S
//                    --trace 0|1 --reference DIR --out DIR
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/threading.h"
#include "harness.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--reference") {
      args.reference_dir = value;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (args.workload == "infer" || args.workload == "plan" ||
          args.workload == "serve") &&
         args.seconds > 0.0 && !args.reference_dir.empty() &&
         !args.out_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: ccperf_perfbench --workload infer|plan|serve --seed N "
                 "--seconds S --trace 0|1 --reference DIR --out DIR\n";
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  std::cout << "workload " << args.workload << ", seed " << args.seed << ", "
            << args.seconds << " s, trace " << (args.trace ? 1 : 0) << "\n";

  perfbench::Environment environment;
  environment.Begin();
  perfbench::Ledger ledger;
  perfbench::Metrics metrics;
  try {
    if (args.workload == "infer") {
      perfbench::RunInfer(args, ledger, metrics);
    } else if (args.workload == "plan") {
      perfbench::RunPlan(args, ledger, metrics);
    } else {
      perfbench::RunServe(args, ledger, metrics);
    }
  } catch (const std::exception& error) {
    ledger.Check(false, "exception", error.what());
  }
  environment.End(args.out_dir + "/env.json",
                  ccperf::GlobalPool().ThreadCount());
  return perfbench::Finish(ledger, metrics);
}
