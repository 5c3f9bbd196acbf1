#include "traffic/generator.hpp"

namespace dl2f::traffic {

SyntheticTraffic::SyntheticTraffic(SyntheticPattern pattern, double injection_rate,
                                   std::uint64_t seed)
    : pattern_(pattern), rate_(injection_rate), chance_(injection_rate), rng_(seed) {}

void SyntheticTraffic::tick(noc::Mesh& mesh) {
  const auto n = mesh.shape().node_count();
  for (NodeId src = 0; src < n; ++src) {
    if (!rng_.bernoulli(chance_)) continue;
    const NodeId dst = pattern_destination(pattern_, mesh.shape(), src, rng_);
    if (dst != src) mesh.inject(src, dst);
  }
}

}  // namespace dl2f::traffic
