// The three workloads. Each fills `report` with its end-to-end metrics
// (timed run) or its layer metrics (traced run) and every output check.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// The collector flags a workload ran with (for the environment record).
struct RunRecord {
  std::string collectord_flags;
};

void run_ingest_flood(const Options& options, Report& report,
                      RunRecord& record);
void run_serve_mixed(const Options& options, Report& report,
                     RunRecord& record);
void run_refresh_window(const Options& options, Report& report,
                        RunRecord& record);

/// Traced runs: time each layer through its public calls.
void trace_ingest_layers(const Options& options, Report& report,
                         RunRecord& record);
void trace_serve_layers(const Options& options, Report& report,
                        RunRecord& record);
void trace_refresh_layers(const Options& options, Report& report);

}  // namespace perfbench
