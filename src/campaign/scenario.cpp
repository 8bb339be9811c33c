#include "campaign/scenario.h"

#include "api/request.h"
#include "util/error.h"
#include "util/strings.h"

namespace fsr::campaign {

const char* to_string(ScenarioKind kind) noexcept {
  constexpr api::RequestKind k_submits[] = {api::RequestKind::analyze_safety,
                                            api::RequestKind::emulate,
                                            api::RequestKind::simulate};
  return api::identity_tag(k_submits[static_cast<std::size_t>(kind)]);
}

void validate_scenario(const Scenario& scenario) {
  const bool has_spp = scenario.spp != nullptr;
  const bool has_algebra = scenario.algebra != nullptr;
  const bool has_topology = scenario.topology != nullptr;
  bool ok = false;
  if (scenario.kind == ScenarioKind::safety) {
    // Exactly one analysis target: an SPP instance is itself translated to
    // an algebra, so carrying both would leave one of them silently unused.
    ok = (has_spp != has_algebra) && !has_topology;
  } else if (scenario.kind == ScenarioKind::simulation) {
    // The event-driven simulator runs concrete SPP instances only.
    ok = has_spp && !has_algebra && !has_topology;
  } else {
    ok = (has_spp && !has_algebra && !has_topology) ||
         (!has_spp && has_algebra && has_topology);
  }
  if (!ok) {
    throw InvalidArgument(
        "scenario '" + scenario.id + "' has an invalid payload shape for " +
        to_string(scenario.kind) +
        " (want: safety with spp XOR algebra, emulation with spp or "
        "algebra+topology, or simulation with spp)");
  }
}

std::uint64_t derive_scenario_seed(std::uint64_t campaign_seed,
                                   const std::string& id,
                                   std::uint64_t ordinal) {
  return util::splitmix64(campaign_seed ^
                          util::splitmix64(util::fnv1a64(id) + ordinal));
}

}  // namespace fsr::campaign
