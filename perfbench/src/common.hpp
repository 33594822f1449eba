// Shared plumbing of the benchmark program: clocks and percentiles, the
// result record every workload fills, /proc readings, the gill-collectord
// child process and /v1/metrics scraping.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double now_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// CPU seconds of this whole process (every thread).
double process_cpu_s();

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Options every workload receives from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // scratch space inside the checkout
  std::string bin_dir;    // where gill-collectord was built
  std::string data_dir;   // perfbench/ (recorded reference values)
};

/// What one run reports: operation counts, named metrics, and the outcome
/// of every output check.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A figure printed for humans only (per-workload names, context).
  void info(const std::string& name, double value, const std::string& unit);
  void note(const std::string& text);
  /// Records one output check; a failed check makes the run incorrect.
  bool check(const std::string& name, bool ok, const std::string& detail = "");

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Human-readable report, then the one-line JSON result (last line).
  void print(const std::map<std::string, std::string>& environment) const;

 private:
  struct Figure {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Figure> metrics_;
  std::vector<Figure> info_;
  std::vector<std::string> notes_;
  std::vector<std::string> checks_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// utime+stime of a process, seconds (/proc/<pid>/stat).
double proc_cpu_s(pid_t pid);
/// A "VmXXX:" line of /proc/<pid>/status, in MiB.
double proc_status_mb(pid_t pid, const char* field);

/// Parsed Prometheus exposition: one value per series, keyed by the full
/// series text ("name{label=\"v\"}").
class Scrape {
 public:
  static std::optional<Scrape> fetch(std::uint16_t port);
  static Scrape parse(const std::string& text);
  /// Sum over every series of metric `name` (all label sets).
  double sum(const std::string& name) const;
  /// Value of `name` restricted to series whose labels contain `label`
  /// (e.g. "vp=\"3\""), summed.
  double sum(const std::string& name, const std::string& label) const;

 private:
  std::map<std::string, double> series_;
};

/// gill-collectord as a child process. Its stderr goes to a log file; the
/// ports it bound (0 = ephemeral) are read back from the start-up line.
class Collectord {
 public:
  Collectord() = default;
  ~Collectord();
  Collectord(const Collectord&) = delete;
  Collectord& operator=(const Collectord&) = delete;

  /// Starts the binary with `args` (port flags are added here) and waits
  /// for its start-up line. Returns false on failure.
  bool start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path);
  /// SIGTERM, then waits for the exit (SIGKILL after `timeout_s`).
  /// Returns true when the process exited 0.
  bool stop(double timeout_s = 30);

  pid_t pid() const { return pid_; }
  std::uint16_t http_port() const { return http_port_; }

 private:
  /// The log text written so far.
  std::string log() const;

  pid_t pid_ = -1;
  std::uint16_t http_port_ = 0;
  std::string log_path_;
};

/// Polls /v1/healthz until `sessions` peers report Established.
bool wait_established(std::uint16_t http_port, std::size_t sessions,
                      double timeout_s);

std::string format_double(double value);

}  // namespace perfbench
