#include "common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness/http_client.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

std::string format_double(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// --- Report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, value, unit});
}

void Report::note(const std::string& text) { notes_.push_back(text); }

bool Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(std::string(ok ? "pass " : "FAIL ") + name +
                    (detail.empty() ? "" : ": " + detail));
  if (!ok) correct_ = false;
  return ok;
}

void Report::print(
    const std::map<std::string, std::string>& environment) const {
  std::printf("environment:");
  for (const auto& [key, value] : environment) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");
  for (const auto& note : notes_) std::printf("note: %s\n", note.c_str());
  for (const auto& check : checks_) std::printf("check: %s\n", check.c_str());
  for (const auto& figure : info_) {
    std::printf("  %-34s %14.4f %s\n", figure.name.c_str(), figure.value,
                figure.unit.c_str());
  }
  for (const auto& figure : metrics_) {
    std::printf("* %-34s %14.4f %s\n", figure.name.c_str(), figure.value,
                figure.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& figure : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + figure.name + "\": {\"value\": " +
            format_double(figure.value) + ", \"unit\": \"" + figure.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- /proc ---------------------------------------------------------------------

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name may hold spaces: fields restart after the last ')'.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (index == 15) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
      break;
    }
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_status_mb(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const std::size_t length = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, length, field) == 0 && line.size() > length &&
        line[length] == ':') {
      return std::strtod(line.c_str() + length + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

// --- Scrape ----------------------------------------------------------------------

std::optional<Scrape> Scrape::fetch(std::uint16_t port) {
  const auto response =
      gill::harness::http_get("127.0.0.1", port, "/v1/metrics", 10000);
  if (!response || response->status != 200) return std::nullopt;
  return parse(response->body);
}

Scrape Scrape::parse(const std::string& text) {
  Scrape scrape;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    scrape.series_[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return scrape;
}

double Scrape::sum(const std::string& name) const { return sum(name, ""); }

double Scrape::sum(const std::string& name, const std::string& label) const {
  double total = 0;
  for (auto it = series_.lower_bound(name); it != series_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    const bool bare = key.size() == name.size();
    if (!bare && key[name.size()] != '{') continue;
    if (!label.empty() && key.find(label) == std::string::npos) continue;
    total += it->second;
  }
  return total;
}

// --- Collectord ------------------------------------------------------------------

Collectord::~Collectord() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

bool Collectord::start(const std::string& binary,
                       const std::vector<std::string>& args,
                       const std::string& log_path) {
  log_path_ = log_path;
  std::vector<std::string> argv_text = {binary, "--bind", "127.0.0.1",
                                        "--listen-port", "0", "--http-port",
                                        "0"};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& arg : argv_text) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return false;
  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(log_fd, STDERR_FILENO);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (pid_ < 0) return false;

  // The start-up line names the bound ports: "... HTTP on 127.0.0.1:N (".
  const double deadline = now_s() + 20;
  while (now_s() < deadline) {
    const std::string text = log();
    const auto at = text.find("HTTP on ");
    if (at != std::string::npos) {
      const auto colon = text.find(':', at + 8);
      if (colon != std::string::npos) {
        http_port_ = static_cast<std::uint16_t>(
            std::strtoul(text.c_str() + colon + 1, nullptr, 10));
        return http_port_ != 0;
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

bool Collectord::stop(double timeout_s) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const double deadline = now_s() + timeout_s;
  int status = 0;
  while (now_s() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return false;
}

std::string Collectord::log() const {
  std::ifstream in(log_path_);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

bool wait_established(std::uint16_t http_port, std::size_t sessions,
                      double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    const auto response =
        gill::harness::http_get("127.0.0.1", http_port, "/v1/healthz", 5000);
    if (response && response->status == 200) {
      std::size_t established = 0;
      for (std::size_t at = response->body.find("\"Established\"");
           at != std::string::npos;
           at = response->body.find("\"Established\"", at + 1)) {
        ++established;
      }
      if (established >= sessions) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

}  // namespace perfbench
