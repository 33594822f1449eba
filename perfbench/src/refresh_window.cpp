// refresh_window: the filter-refresh pipeline in process, on the
// bench_parallel_refresh world — one refresh over the 6 h training window,
// then one over the following 30 min window with the pairwise-score cache
// kept warm, on a pool of one thread per core (--analysis-threads -1).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "anchor/component2.hpp"
#include "anchor/event_inference.hpp"
#include "anchor/event_selection.hpp"
#include "anchor/scoring.hpp"
#include "checks.hpp"
#include "filters/filters.hpp"
#include "parallel/thread_pool.hpp"
#include "redundancy/component1.hpp"
#include "sampling/gill_pipeline.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

using namespace gill;

/// Digest of what a refresh installs: the anchors and filters.describe().
std::uint64_t refresh_digest(const sample::GillPipelineResult& result) {
  std::string text = "anchors:";
  for (const auto vp : result.anchors) text += " " + std::to_string(vp);
  text += "\n" + result.filters.describe();
  return digest(text.data(), text.size());
}

std::uint64_t combine(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t both[2] = {a, b};
  return digest(both, sizeof both);
}

/// Per-stage wall times of one staged refresh, milliseconds.
struct StageTimes {
  double component1 = 0;
  double infer_events = 0;
  double select_events = 0;
  double extract = 0;
  double scoring = 0;
  double select_anchors = 0;
  double generate = 0;
  std::size_t events = 0;
  std::size_t rows = 0;

  double sum() const {
    return component1 + infer_events + select_events + extract + scoring +
           select_anchors + generate;
  }
};

/// run_gill_pipeline's stages, called one by one in its order.
sample::GillPipelineResult staged_pipeline(const UpdateStream& rib,
                                           const UpdateStream& training,
                                           const sample::GillConfig& config,
                                           const sample::PipelineRuntime& runtime,
                                           StageTimes& times) {
  sample::GillPipelineResult result;
  double at = now_s();
  const auto lap = [&at] {
    const double now = now_s();
    const double ms = (now - at) * 1000.0;
    at = now;
    return ms;
  };
  result.component1 =
      red::find_redundant_updates(training, config.component1, runtime.pool);
  times.component1 = lap();
  std::set<bgp::VpId> vp_set;
  for (const auto& update : training) vp_set.insert(update.vp);
  for (const auto& entry : rib) vp_set.insert(entry.vp);
  const std::vector<bgp::VpId> vps(vp_set.begin(), vp_set.end());
  const auto inferred =
      anchor::infer_events(rib, training, config.event_inference);
  times.infer_events = lap();
  const auto candidates = anchor::filter_non_global(
      inferred, vps.size(), config.event_selection.max_visibility);
  const auto events =
      anchor::select_events(candidates, {}, config.event_selection);
  result.events_used = events.size();
  times.select_events = lap();
  times.events = events.size();
  if (!events.empty() && vps.size() >= 2) {
    anchor::EventFeatureExtractor extractor(vps);
    auto matrices = extractor.extract(rib, training, events);
    times.extract = lap();
    times.rows = events.size() * vps.size();
    result.scores = anchor::redundancy_scores(std::move(matrices), vps,
                                              runtime.pool, runtime.score_cache);
    result.scored_vps = vps;
    times.scoring = lap();
    std::map<bgp::VpId, double> volume_by_vp;
    for (const auto& update : training) volume_by_vp[update.vp] += 1.0;
    std::vector<double> volumes;
    for (const auto vp : vps) volumes.push_back(volume_by_vp[vp]);
    anchor::Component2Config component2 = config.component2;
    component2.max_anchors = std::min<std::size_t>(
        component2.max_anchors,
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     config.max_anchor_fraction *
                                     static_cast<double>(vps.size()))));
    result.anchors =
        anchor::select_anchors(result.scores, vps, volumes, component2).anchors;
    times.select_anchors = lap();
  }
  result.filters = filt::generate_filters(result.component1, result.anchors,
                                          config.granularity, &training);
  times.generate = lap();
  return result;
}

}  // namespace

void run_refresh_window(const Options& options, Report& report, RunRecord&) {
  // Set-up is the world build; it runs twice and reports the median. The
  // world is bench_parallel_refresh's whatever the seed.
  std::vector<double> setup;
  RefreshWorld world;
  for (int i = 0; i < 2; ++i) {
    const double start = now_s();
    world = make_refresh_world();
    setup.push_back(now_s() - start);
  }
  const double window_updates =
      static_cast<double>(world.training.size() + world.next.size());
  report.info("training_updates", static_cast<double>(world.training.size()),
              "updates");
  report.info("next_updates", static_cast<double>(world.next.size()),
              "updates");

  const sample::GillConfig config;
  par::ThreadPool pool(par::auto_thread_count());
  std::vector<double> refresh_s, next_s;
  std::uint64_t first_digest = 0;
  std::size_t diverged = 0;
  std::size_t pairs = 0;
  double cpu_s = 0;
  const double start = now_s();
  // At least three pairs, so the median sets aside one disturbed pair.
  while (pairs < 3 || now_s() - start < options.seconds) {
    anchor::ScoreCache cache;  // warm across the pair, as the merge plane keeps it
    sample::PipelineRuntime runtime{&pool, &cache};
    const double cpu_before = process_cpu_s();
    double at = now_s();
    const auto full =
        sample::run_gill_pipeline(world.rib, world.training, {}, config, runtime);
    refresh_s.push_back(now_s() - at);
    at = now_s();
    const auto next =
        sample::run_gill_pipeline(world.next_rib, world.next, {}, config, runtime);
    next_s.push_back(now_s() - at);
    cpu_s += process_cpu_s() - cpu_before;
    const std::uint64_t pair_digest =
        combine(refresh_digest(full), refresh_digest(next));
    if (pairs == 0) first_digest = pair_digest;
    if (pair_digest != first_digest) ++diverged;
    ++pairs;
  }

  // The reference: the historical serial, cache-free pipeline.
  const auto serial_full =
      sample::run_gill_pipeline(world.rib, world.training, {}, config);
  const auto serial_next =
      sample::run_gill_pipeline(world.next_rib, world.next, {}, config);
  const std::uint64_t serial_digest =
      combine(refresh_digest(serial_full), refresh_digest(serial_next));
  const std::uint64_t recorded = recorded_digest(options.data_dir);
  const std::string problem =
      check_refresh(first_digest, serial_digest, recorded);
  report.attempt(2 * pairs);
  report.check("refreshes agree with each other", diverged == 0,
               std::to_string(diverged) + " of " + std::to_string(pairs) +
                   " pairs diverged");
  report.check("filters and anchors equal the serial pipeline's", problem.empty(),
               problem);
  if (diverged != 0 || !problem.empty()) report.fail(2 * pairs);
  std::printf("refresh_digest %llu\n",
              static_cast<unsigned long long>(first_digest));

  const double full_median = median(refresh_s);
  const double next_median = median(next_s);
  const double cpu_us =
      cpu_s * 1e6 / (window_updates * static_cast<double>(pairs));
  report.info("refresh_s", full_median, "s");
  report.info("refresh_next_s", next_median, "s");
  report.info("pairs", static_cast<double>(pairs), "");
  report.info("anchors", static_cast<double>(serial_full.anchors.size()), "");
  report.metric("setup_s", median(setup), "s");
  report.metric("throughput", window_updates / (full_median + next_median),
                "1/s");
  report.metric("p50_ms", next_median * 1000.0, "ms");
  report.metric("p99_ms", full_median * 1000.0, "ms");
  report.metric("cpu_us", cpu_us, "us");
  report.metric("rss_mb", proc_status_mb(::getpid(), "VmHWM"), "MiB");
}

void trace_refresh_layers(const Options&, Report& report) {
  const RefreshWorld world = make_refresh_world();
  const sample::GillConfig config;
  par::ThreadPool pool(par::auto_thread_count());

  // A warm-up refresh, so neither timed run pays first-touch costs.
  const auto reference = sample::run_gill_pipeline(world.rib, world.training,
                                                   {}, config, {&pool, nullptr});
  const std::uint64_t shards_before = pool.shards_executed();
  anchor::ScoreCache cache;
  StageTimes full, next;
  const auto full_result = staged_pipeline(world.rib, world.training, config,
                                           {&pool, &cache}, full);
  const std::uint64_t hits_before = cache.hits;
  const std::uint64_t misses_before = cache.misses;
  staged_pipeline(world.next_rib, world.next, config, {&pool, &cache}, next);
  const double next_lookups =
      static_cast<double>(cache.hits - hits_before + cache.misses - misses_before);
  const std::uint64_t shards = pool.shards_executed() - shards_before;
  // The end-to-end figure the 6 h stages add up to, untraced, cold cache.
  double refresh_s = 0;
  {
    anchor::ScoreCache fresh;
    const double at = now_s();
    sample::run_gill_pipeline(world.rib, world.training, {}, config,
                              {&pool, &fresh});
    refresh_s = now_s() - at;
  }
  report.check("staged refresh equals run_gill_pipeline",
               refresh_digest(full_result) == refresh_digest(reference));
  report.attempt(2);

  report.info("refresh_s (untraced, same process)", refresh_s, "s");
  report.info("sum of 6 h stages", full.sum() / 1000.0, "s");
  report.metric("redundancy.component1_ms", full.component1, "ms");
  report.metric("anchor.infer_events_ms", full.infer_events, "ms");
  report.metric("anchor.select_events_ms", full.select_events, "ms");
  report.metric("features.extract_ms", full.extract, "ms");
  report.metric("anchor.scoring_ms", full.scoring, "ms");
  report.metric("anchor.select_anchors_ms", full.select_anchors, "ms");
  report.metric("filters.generate_ms", full.generate, "ms");
  report.metric("refresh.unattributed_ms", refresh_s * 1000.0 - full.sum(),
                "ms");
  report.metric("features.extract_next_ms", next.extract, "ms");
  report.metric("anchor.scoring_next_ms", next.scoring, "ms");
  report.metric("refresh.next_total_ms", next.sum(), "ms");
  report.metric("anchor.score_cache_hit_ratio",
                next_lookups > 0
                    ? static_cast<double>(cache.hits - hits_before) / next_lookups
                    : 0,
                "ratio");
  report.metric("anchor.events", static_cast<double>(full.events), "count");
  report.metric("features.rows", static_cast<double>(full.rows), "count");
  report.metric("anchor.anchors",
                static_cast<double>(full_result.anchors.size()), "count");
  report.metric("filters.drop_rules",
                static_cast<double>(full_result.filters.drop_rule_count()),
                "count");
  report.metric("parallel.shards_executed",
                static_cast<double>(shards),
                "count");
}

}  // namespace perfbench
