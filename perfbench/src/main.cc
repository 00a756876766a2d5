// Benchmark binary: runs one workload and prints its result as one
// JSON line. perfbench/run.py builds it, runs it, and turns that line into
// the benchmark's report.
//
//   flexrel_perfbench --workload registry-read|registry-mutate|mine-wide
//                     --seed N --seconds S --trace 0|1 --trace-dir DIR

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Settings settings;
  settings.trace_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      settings.workload = value;
    } else if (flag == "--seed") {
      settings.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      settings.seconds = std::atof(value);
    } else if (flag == "--trace") {
      settings.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      settings.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (settings.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  perfbench::RunResult result;
  if (settings.workload == "registry-read") {
    result = perfbench::RunRegistryRead(settings);
  } else if (settings.workload == "registry-mutate") {
    result = perfbench::RunRegistryMutate(settings);
  } else if (settings.workload == "mine-wide") {
    result = perfbench::RunMineWide(settings);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", settings.workload.c_str());
    return 2;
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
