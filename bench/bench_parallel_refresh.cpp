// Parallel analysis engine: serial vs worker-pool filter-refresh pipeline
// (DESIGN.md §9). Runs the same GILL pipeline (Component #1 correlation
// groups, event inference, per-VP feature extraction, pairwise VP scoring,
// filter generation) over one simulated training window, first on the
// historical serial path and then on a 4-thread ThreadPool, and reports the
// wall-clock speedup. Emits BENCH_parallel.json.
//
// Under --strict the 1.8x floor at 4 threads is enforced only when the
// machine actually has >= 4 hardware threads; on smaller boxes the run is
// informational (a 1-core container cannot show parallel speedup, and the
// determinism tests already pin correctness there).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "parallel/thread_pool.hpp"
#include "sampling/gill_pipeline.hpp"
#include "simulator/workload.hpp"
#include "topology/generator.hpp"

namespace {

using namespace gill;

constexpr std::size_t kThreads = 4;
constexpr int kRepetitions = 3;
constexpr double kStrictSpeedupFloor = 1.8;

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) strict = true;
  }
  bench::header("Parallel analysis engine: filter-refresh pipeline speedup",
                "§7 orchestration cost; the refresh the platform now runs "
                "off the event loop");

  // World: 400 ASes, one VP per fifth AS, a 6-hour training window — the
  // same scale Table 2 trains GILL on. The timed region is dominated by
  // Table 6 feature extraction (about 88% of a serial refresh), then the
  // per-prefix Component #1 pass and event inference.
  const auto topology =
      topo::generate_artificial({.as_count = 400, .seed = 91});
  sim::InternetConfig config;
  for (bgp::AsNumber as = 0; as < 340; as += 5) {
    config.vp_hosts.push_back(as);
  }
  config.rng_seed = 92;
  config.path_exploration_probability = 0.35;
  sim::Internet internet(topology, config);
  const auto ribs = internet.rib_dump(0);
  sim::WorkloadConfig workload;
  workload.seed = 93;
  workload.duration = 6 * 3600;
  workload.link_failures_per_hour = 50;
  workload.hotspot_fraction = 0.2;
  const auto training = sim::generate_workload(internet, 10, workload);
  std::printf("training window: %zu updates over %zu VPs\n\n", training.size(),
              config.vp_hosts.size());

  const sample::GillConfig gill_config;

  // Warm-up pass (page in the streams, settle the allocator) plus the
  // reference result the parallel runs must reproduce byte-for-byte.
  const auto reference =
      sample::run_gill_pipeline(ribs, training, {}, gill_config);

  const auto time_runs = [&](const sample::PipelineRuntime& runtime) {
    double best = 1e300;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const bench::Stopwatch watch;
      const auto result =
          sample::run_gill_pipeline(ribs, training, {}, gill_config, runtime);
      const double seconds = watch.seconds();
      if (seconds < best) best = seconds;
      if (result.anchors != reference.anchors ||
          result.filters.describe() != reference.filters.describe()) {
        std::fprintf(stderr, "FAIL: run diverged from the serial result\n");
        std::exit(1);
      }
    }
    return best;
  };

  const double serial_s = time_runs({});
  par::ThreadPool pool(kThreads);
  sample::PipelineRuntime runtime;
  runtime.pool = &pool;
  const double parallel_s = time_runs(runtime);
  const double speedup = serial_s / parallel_s;
  const unsigned hardware = std::thread::hardware_concurrency();

  bench::row({"path", "best_of_3_s", "speedup"}, 16);
  bench::row({"serial", bench::num(serial_s, 3), "1.00"}, 16);
  bench::row({"4 threads", bench::num(parallel_s, 3),
              bench::num(speedup, 2)},
             16);
  std::printf("\nhardware threads: %u; pool shards executed: %zu\n", hardware,
              pool.shards_executed());

  std::string json = "{\"bench\":\"parallel_refresh\",";
  json += "\"training_updates\":" + std::to_string(training.size()) + ",";
  json += "\"threads\":" + std::to_string(kThreads) + ",";
  json += "\"hardware_threads\":" + std::to_string(hardware) + ",";
  json += "\"serial_s\":" + json_number(serial_s) + ",";
  json += "\"parallel_s\":" + json_number(parallel_s) + ",";
  json += "\"speedup\":" + json_number(speedup) + ",";
  json += "\"strict_speedup_floor\":" + json_number(kStrictSpeedupFloor) +
          "}\n";
  std::FILE* out = std::fopen("BENCH_parallel.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    bench::note("wrote BENCH_parallel.json");
  } else {
    std::fprintf(stderr, "error: cannot write BENCH_parallel.json\n");
    return 1;
  }

  if (strict) {
    if (hardware < kThreads) {
      bench::note("strict floor skipped: fewer than 4 hardware threads");
    } else if (speedup < kStrictSpeedupFloor) {
      std::fprintf(stderr, "FAIL: %.2fx is below the %.1fx floor\n", speedup,
                   kStrictSpeedupFloor);
      return 1;
    }
  }
  return 0;
}
