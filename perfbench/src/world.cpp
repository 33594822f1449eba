#include "world.hpp"

#include "bgp/rib.hpp"
#include "netbase/prefix_alloc.hpp"
#include "simulator/workload.hpp"
#include "topology/generator.hpp"

namespace perfbench {

namespace {

using namespace gill;

constexpr std::uint32_t kAsCount = 400;

}  // namespace

RefreshWorld make_refresh_world() {
  // bench_parallel_refresh's seeds: topology 91, routing 92, workload 93.
  RefreshWorld world;
  world.topology = std::make_unique<topo::AsTopology>(
      topo::generate_artificial({.as_count = kAsCount, .seed = 91}));
  sim::InternetConfig config;
  for (bgp::AsNumber as = 0; as < 340; as += 5) config.vp_hosts.push_back(as);
  config.rng_seed = 92;
  config.path_exploration_probability = 0.35;
  world.vp_hosts = config.vp_hosts;
  sim::Internet internet(*world.topology, config);
  world.rib = internet.rib_dump(0);
  sim::WorkloadConfig workload;
  workload.seed = 93;
  workload.duration = RefreshWorld::kTrainingSecs + RefreshWorld::kNextSecs;
  workload.link_failures_per_hour = 50;
  workload.hotspot_fraction = 0.2;
  const UpdateStream all = sim::generate_workload(internet, 10, workload);
  world.training = all.window(0, RefreshWorld::kTrainingSecs);
  world.next = all.window(RefreshWorld::kTrainingSecs,
                          RefreshWorld::kTrainingSecs + RefreshWorld::kNextSecs);
  // The second refresh starts from the table as it stands at 6 h.
  bgp::RibSet ribs;
  ribs.apply(world.rib);
  ribs.apply(world.training);
  std::vector<Update> next_rib;
  for (const auto& [vp, rib] : ribs.ribs()) {
    const UpdateStream dump = rib.dump(vp, RefreshWorld::kTrainingSecs);
    next_rib.insert(next_rib.end(), dump.begin(), dump.end());
  }
  world.next_rib = UpdateStream(std::move(next_rib));
  world.next_rib.sort();
  return world;
}

std::vector<Update> dual_stack(const UpdateStream& stream,
                               std::uint32_t epoch) {
  std::vector<Update> out;
  out.reserve(stream.size() * 2);
  for (const Update& update : stream) {
    // The world's prefixes are v4_slot(origin): 10.x.y.0/24, slot x*256+y.
    const std::uint32_t slot =
        ((update.prefix.address().v4_value() >> 8) & 0xffff) +
        epoch * kAsCount;
    Update v4 = update;
    v4.prefix = net::PrefixAllocator::v4_slot(slot);
    Update v6 = v4;
    v6.prefix = net::PrefixAllocator::v6_slot(slot);
    out.push_back(std::move(v4));
    out.push_back(std::move(v6));
  }
  return out;
}

std::uint64_t digest(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace perfbench
