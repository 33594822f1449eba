// perfbench: the collector benchmark program.
//
//   perfbench --workload ingest_flood|serve_mixed|refresh_window
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR --bin-dir DIR --data-dir DIR [--commit SHA]
//
// Prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits non-zero when any
// output check failed. perfbench/run.py builds this binary and
// gill-collectord, then runs it.
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "archive/segment.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::stoull(value);
    else if (key == "--seconds") options.seconds = std::stod(value);
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--work-dir") options.work_dir = value;
    else if (key == "--bin-dir") options.bin_dir = value;
    else if (key == "--data-dir") options.data_dir = value;
    else if (key == "--commit") commit = value;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (options.work_dir.empty() || options.bin_dir.empty()) {
    std::fprintf(stderr, "perfbench: --work-dir and --bin-dir are required\n");
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);

  Report report;
  RunRecord record;
  run_selftest(report, options.work_dir);
  if (options.workload != "ingest_flood" && options.workload != "serve_mixed" &&
      options.workload != "refresh_window") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (options.trace) {
    // A traced run reports every layer metric, whatever the workload: each
    // layer is timed through its public calls on its own workload's inputs.
    trace_ingest_layers(options, report, record);
    trace_serve_layers(options, report, record);
    trace_refresh_layers(options, report);
  } else if (options.workload == "ingest_flood") {
    run_ingest_flood(options, report, record);
  } else if (options.workload == "serve_mixed") {
    run_serve_mixed(options, report, record);
  } else {
    run_refresh_window(options, report, record);
  }

  const std::map<std::string, std::string> environment = {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"trace", options.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"commit", commit},
      {"compiler", PERFBENCH_COMPILER},
      {"zstd", gill::archive::compression_available() ? "yes" : "no"},
      {"collectord_flags",
       "'" + (record.collectord_flags.empty() ? std::string("none")
                                              : record.collectord_flags) +
           "'"},
  };
  if (report.attempted() == 0) report.attempt();
  const bool complete = report.correct() && report.failed() == 0;
  if (!complete && report.attempted() > 0 && report.failed() == 0) report.fail();
  report.print(environment);
  std::filesystem::remove_all(options.work_dir);
  return complete ? 0 : 1;
}
