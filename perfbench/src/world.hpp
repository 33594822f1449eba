// Inputs of the benchmark workloads. The simulated world is fixed (it is
// bench_parallel_refresh's); the workloads derive their seeded inputs —
// session split, replay offsets, query mix, pacing — from it, so the same
// seed gives byte-identical inputs and every seed gives inputs of the
// same size and shape.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bgp/update.hpp"
#include "simulator/internet.hpp"
#include "topology/topology.hpp"

namespace perfbench {

using gill::bgp::Timestamp;
using gill::bgp::Update;
using gill::bgp::UpdateStream;

/// The refresh world of bench_parallel_refresh: 400 ASes, one VP per fifth
/// AS below 340 (68 VPs), path exploration on, a 6 h training window plus
/// the following 30 min window.
struct RefreshWorld {
  static constexpr Timestamp kTrainingSecs = 6 * 3600;
  static constexpr Timestamp kNextSecs = 30 * 60;

  std::unique_ptr<gill::topo::AsTopology> topology;
  UpdateStream rib;            // RIB dump at 0 (start of the 6 h window)
  UpdateStream training;       // [0, 6 h)
  UpdateStream next_rib;       // RIB at 6 h: the dump replayed over training
  UpdateStream next;           // [6 h, 6 h 30 min)
  std::vector<gill::bgp::AsNumber> vp_hosts;
};

RefreshWorld make_refresh_world();

/// The world's updates made dual-stack: each update is followed by an IPv6
/// twin (same VP, time, AS path and communities; the origin's /48), so the
/// wire carries plain NLRI and MP_REACH/MP_UNREACH alike. `epoch` shifts
/// every prefix to a disjoint address block (0 keeps the world's own IPv4
/// prefixes, which the refresh world's filter table keys on).
std::vector<Update> dual_stack(const UpdateStream& stream, std::uint32_t epoch);

/// One 64-bit digest of a byte string (FNV-1a), for output checks.
std::uint64_t digest(const void* data, std::size_t size);

}  // namespace perfbench
