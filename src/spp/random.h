// Random-but-valid SPP instances: the fuzz workload of the campaign
// sweeps, the wire `random` payload, the differential suite and benches.
#ifndef FSR_SPP_RANDOM_H
#define FSR_SPP_RANDOM_H

#include <cstdint>
#include <string>

#include "spp/spp.h"

namespace fsr::spp {

/// The shape of one random instance. The ceilings bound generation cost
/// (wire payloads resolve on the front-end thread): 256 nodes take a
/// fraction of a second, 1024 take seconds.
struct RandomSppShape {
  static constexpr std::int32_t k_max_nodes = 256;
  static constexpr std::int32_t k_max_paths_per_node = 64;  // candidate cap
  static constexpr std::int32_t k_max_path_length = 256;

  std::int32_t min_nodes = 3;
  std::int32_t max_nodes = 6;
  double extra_edge_probability = 0.3;
  std::int32_t paths_per_node = 3;
  std::int32_t max_path_length = 5;
};

/// A connected graph rooted at the destination plus extra edges, with up
/// to `paths_per_node` randomly ranked permitted paths per node.
/// Deterministic in `seed`. Throws fsr::InvalidArgument naming the field
/// when min_nodes > max_nodes or a field exceeds its ceiling.
SppInstance random_spp_instance(std::string name, std::uint64_t seed,
                                const RandomSppShape& shape);

}  // namespace fsr::spp

#endif  // FSR_SPP_RANDOM_H
