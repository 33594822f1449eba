#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {
std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.0f", value);
  return buffer;
}
}  // namespace

std::string check_conservation(const IngestCounts& c) {
  if (c.received + c.decode_errors != c.sent) {
    return "sent " + number(c.sent) + " != received " + number(c.received) +
           " + decode-rejected " + number(c.decode_errors);
  }
  if (c.stored + c.filtered + c.stale_refreshed != c.received) {
    return "received " + number(c.received) + " != stored " +
           number(c.stored) + " + filtered " + number(c.filtered) +
           " + GR-refreshed " + number(c.stale_refreshed);
  }
  if (c.shed != 0) return number(c.shed) + " peers shed by overload control";
  return "";
}

std::string check_archive(double archive_records, double stored) {
  if (archive_records == stored) return "";
  return "archive holds " + number(archive_records) + " records, " +
         number(stored) + " stored";
}

std::string check_placement(const std::vector<double>& peers_per_shard,
                            double expected_per_shard) {
  std::string layout;
  bool ok = !peers_per_shard.empty();
  for (const double peers : peers_per_shard) {
    layout += (layout.empty() ? "" : "/") + number(peers);
    ok = ok && peers == expected_per_shard;
  }
  return ok ? "" : "sessions per shard " + layout + ", want " +
                       number(expected_per_shard) + " each";
}

std::size_t stream_mismatches(const std::vector<gill::bgp::Update>& sent,
                              const std::vector<StreamRecord>& received) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (i >= received.size()) {
      bad += sent.size() - i;
      break;
    }
    const StreamRecord& record = received[i];
    const bool ok = record.prefix == sent[i].prefix &&
                    record.withdrawal == sent[i].withdrawal &&
                    (sent[i].withdrawal || record.tag == static_cast<long>(i));
    if (!ok) ++bad;
  }
  return bad;
}

std::string check_digest(std::uint64_t served, std::uint64_t reference) {
  if (served == reference) return "";
  return "response digest " + std::to_string(served) + " != serial engine " +
         std::to_string(reference);
}

std::string check_refresh(std::uint64_t parallel, std::uint64_t serial,
                          std::uint64_t recorded) {
  if (parallel != serial) {
    return "pool result " + std::to_string(parallel) + " != serial " +
           std::to_string(serial);
  }
  if (recorded == 0) return "no value recorded in refresh_digest.txt";
  if (parallel != recorded) {
    return "result " + std::to_string(parallel) + " != recorded " +
           std::to_string(recorded);
  }
  return "";
}

std::uint64_t recorded_digest(const std::string& data_dir) {
  std::ifstream in(data_dir + "/refresh_digest.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    char* end = nullptr;
    const std::uint64_t value = std::strtoull(line.c_str(), &end, 10);
    return end != line.c_str() && *end == '\0' ? value : 0;
  }
  return 0;
}

void run_selftest(Report& report, const std::string& work_dir) {
  // Each case is a wrong output; the check must reject it.
  IngestCounts lost{.sent = 100, .received = 100, .stored = 99};
  IngestCounts unread{.sent = 100, .received = 98, .stored = 98};
  IngestCounts shed{.sent = 100, .received = 100, .stored = 100, .shed = 1};
  IngestCounts good{.sent = 100, .received = 97, .stored = 90, .filtered = 7,
                    .decode_errors = 3};
  gill::bgp::Update a;
  a.prefix = *gill::net::Prefix::parse("10.0.1.0/24");
  gill::bgp::Update b = a;
  b.prefix = *gill::net::Prefix::parse("10.0.2.0/24");
  const std::vector<gill::bgp::Update> sent = {a, b};
  const std::vector<StreamRecord> in_order = {{a.prefix, 0}, {b.prefix, 1}};
  const std::vector<StreamRecord> missing = {{a.prefix, 0}};
  const std::vector<StreamRecord> swapped = {{b.prefix, 1}, {a.prefix, 0}};

  const bool fires =
      !check_conservation(lost).empty() &&
      !check_conservation(unread).empty() &&
      !check_conservation(shed).empty() &&
      check_conservation(good).empty() && !check_archive(99, 100).empty() &&
      check_archive(100, 100).empty() &&
      !check_placement({3, 1}, 2).empty() &&
      check_placement({2, 2}, 2).empty() &&
      stream_mismatches(sent, in_order) == 0 &&
      stream_mismatches(sent, missing) == 1 &&
      stream_mismatches(sent, swapped) == 2 &&
      !check_digest(1, 2).empty() && check_digest(3, 3).empty() &&
      !check_refresh(1, 2, 1).empty() && !check_refresh(1, 1, 2).empty() &&
      !check_refresh(1, 1, 0).empty() && check_refresh(1, 1, 1).empty() &&
      !check_refresh(1, 1, recorded_digest(work_dir + "/missing")).empty();
  report.check("selftest: every output check rejects a wrong output", fires);
}

}  // namespace perfbench
