// Output checks. Each returns an empty string when the output is right and
// a one-line reason otherwise; run_selftest() feeds each one a wrong input
// to show it fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/update.hpp"
#include "common.hpp"

namespace perfbench {

/// Counters scraped from /v1/metrics after the collector drained.
struct IngestCounts {
  double sent = 0;            // updates the generator wrote
  double received = 0;        // gill_daemon_updates_received_total
  double stored = 0;          // gill_daemon_updates_stored_total
  double filtered = 0;        // gill_daemon_updates_filtered_total
  double stale_refreshed = 0; // gill_gr_stale_refreshed_total
  double shed = 0;            // gill_overload_sheds_total
  double decode_errors = 0;   // gill_daemon_decode_errors_total
};

/// sent = received + decode-rejected, received = stored + filtered (+ GR
/// re-advertisements refreshed in place), and no peer shed.
std::string check_conservation(const IngestCounts& counts);

/// The sealed archive holds exactly the stored updates.
std::string check_archive(double archive_records, double stored);

/// Sessions per ingest shard, as /v1/metrics reports them.
std::string check_placement(const std::vector<double>& peers_per_shard,
                            double expected_per_shard);

/// One record the stream subscriber received.
struct StreamRecord {
  gill::net::Prefix prefix;
  long tag = -1;  // corpus sequence number; -1 for withdrawals
  bool withdrawal = false;
};

/// The subscriber saw the sent updates in order (same prefix, same tag).
/// Returns how many of `sent` did not arrive intact (0 = all delivered).
std::size_t stream_mismatches(const std::vector<gill::bgp::Update>& sent,
                              const std::vector<StreamRecord>& received);

/// A /v1/data body equals the serial in-process engine's answer.
std::string check_digest(std::uint64_t served, std::uint64_t reference);

/// The refresh output (anchors + filters.describe()) equals the serial
/// pipeline's and the recorded value; `recorded` 0 means none could be read,
/// which fails.
std::string check_refresh(std::uint64_t parallel, std::uint64_t serial,
                          std::uint64_t recorded);

/// The digest recorded in `data_dir`/refresh_digest.txt (both refreshes
/// combined; the world is the same for every seed); 0 when the file is
/// missing or its digest line is not a number.
std::uint64_t recorded_digest(const std::string& data_dir);

/// Runs every check against a deliberately wrong input; records one
/// "selftest" check per output check in `report`. `work_dir` is where a
/// missing recorded digest is looked for.
void run_selftest(Report& report, const std::string& work_dir);

}  // namespace perfbench
