// The end-to-end GILL sampling pipeline (Fig. 9, algorithmic side):
// Component #1 (redundant updates) + event inference + Component #2
// (anchor VPs) + filter generation. This is what the orchestrator runs
// every 16 days / year respectively (§7).
#pragma once

#include "anchor/component2.hpp"
#include "anchor/event_inference.hpp"
#include "anchor/scoring.hpp"
#include "filters/filters.hpp"
#include "redundancy/component1.hpp"

namespace gill::par {
class ThreadPool;
}  // namespace gill::par

namespace gill::sample {

using bgp::UpdateStream;
using bgp::VpId;

struct GillConfig {
  red::Component1Config component1;
  anchor::EventSelectionConfig event_selection;
  anchor::EventInferenceConfig event_inference;
  anchor::Component2Config component2;
  filt::Granularity granularity = filt::Granularity::kVpPrefix;
  /// false disables Component #2 => the GILL-upd simplified variant.
  bool use_anchors = true;
  /// Upper bound on anchors as a fraction of the VPs — the safety valve
  /// against degenerate score matrices where the stop rule never fires
  /// (anchor share shrinks with coverage in the paper: 17% at 2% coverage
  /// down to 0.4% at 100%).
  double max_anchor_fraction = 0.1;

  GillConfig() {
    // Simulation-scale default: the paper uses 2250 events on the real
    // platforms; benches override per experiment.
    event_selection.per_type_quota = 45;
  }
};

struct GillPipelineResult {
  red::Component1Result component1;
  std::vector<VpId> anchors;
  filt::FilterTable filters;
  /// Pairwise redundancy scores and the VP order they index.
  std::vector<std::vector<double>> scores;
  std::vector<VpId> scored_vps;
  std::size_t events_used = 0;
};

/// Execution-time resources (as opposed to the algorithmic knobs in
/// GillConfig): the worker pool the parallel stages fan out on, and the
/// cross-refresh pairwise-score cache. Both optional; the defaults run the
/// historical serial, cache-free pipeline.
struct PipelineRuntime {
  par::ThreadPool* pool = nullptr;
  anchor::ScoreCache* score_cache = nullptr;
};

/// Runs the pipeline on a training window. `rib` is the RIB dump at the
/// start of the window; `categories` stratifies event selection (Table 5).
/// The parallel stages (per-prefix Component #1, per-VP feature extraction,
/// pairwise VP scoring) are byte-deterministic: any `runtime` produces the
/// serial path's result.
GillPipelineResult run_gill_pipeline(
    const UpdateStream& rib, const UpdateStream& training,
    const std::vector<topo::AsCategory>& categories, const GillConfig& config,
    const PipelineRuntime& runtime = {});

}  // namespace gill::sample
