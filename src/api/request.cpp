#include "api/request.h"

#include <iterator>
#include <type_traits>

#include "api/service.h"
#include "util/error.h"
#include "util/strings.h"

namespace fsr::api {
namespace {

/// Per RequestKind, in enum order: the wire spelling and the identity tag.
/// analyze-safety, emulate and simulate keep the campaign's historical
/// scenario-kind spelling as their tag: campaign report content ids and
/// on-disk cache records are digests of identities, and this spelling
/// keeps every existing one valid.
struct KindNames {
  const char* wire;
  const char* identity;
};
constexpr KindNames k_kind_names[] = {
    {"analyze-safety", "safety"}, {"ground-truth", "ground-truth"},
    {"repair", "repair"},         {"emulate", "emulation"},
    {"simulate", "simulation"},   {"stats", "stats"},
    {"debug", "debug"},
};

template <RequestKind kind, typename T>
constexpr bool k_alternative_is =
    std::is_same_v<std::variant_alternative_t<std::size_t(kind), Request>, T>;

}  // namespace

const char* to_string(RequestKind kind) noexcept {
  return k_kind_names[static_cast<std::size_t>(kind)].wire;
}

const char* identity_tag(RequestKind kind) noexcept {
  return k_kind_names[static_cast<std::size_t>(kind)].identity;
}

std::optional<RequestKind> parse_request_kind(const std::string& text) {
  for (std::size_t i = 0; i < std::size(k_kind_names); ++i) {
    if (text == k_kind_names[i].wire) return static_cast<RequestKind>(i);
  }
  return std::nullopt;
}

RequestKind kind_of(const Request& request) noexcept {
  // Request lists its alternatives in RequestKind order.
  static_assert(k_alternative_is<RequestKind::analyze_safety,
                                 AnalyzeSafetyRequest> &&
                k_alternative_is<RequestKind::ground_truth, GroundTruthRequest> &&
                k_alternative_is<RequestKind::repair, RepairRequest> &&
                k_alternative_is<RequestKind::emulate, EmulateRequest> &&
                k_alternative_is<RequestKind::simulate, SimulateRequest> &&
                k_alternative_is<RequestKind::stats, StatsRequest> &&
                k_alternative_is<RequestKind::debug, DebugRequest> &&
                std::variant_size_v<Request> == std::size(k_kind_names));
  return static_cast<RequestKind>(request.index());
}

void validate(const Request& request) {
  struct Visitor {
    void operator()(const AnalyzeSafetyRequest& req) const {
      const bool has_algebra = req.algebra != nullptr;
      const bool has_spp = req.spp != nullptr;
      if (has_algebra == has_spp) {
        throw InvalidArgument(
            "analyze-safety request needs exactly one of {algebra, spp}");
      }
    }
    void operator()(const GroundTruthRequest& req) const {
      if (req.spp == nullptr) {
        throw InvalidArgument("ground-truth request needs an SPP instance");
      }
    }
    void operator()(const RepairRequest& req) const {
      if (req.spp == nullptr) {
        throw InvalidArgument("repair request needs an SPP instance");
      }
    }
    void operator()(const EmulateRequest& req) const {
      const bool spp_shape = req.spp != nullptr && req.algebra == nullptr &&
                             req.topology == nullptr;
      const bool gpv_shape = req.spp == nullptr && req.algebra != nullptr &&
                             req.topology != nullptr;
      if (!spp_shape && !gpv_shape) {
        throw InvalidArgument(
            "emulate request needs an SPP instance, or an algebra plus a "
            "topology");
      }
    }
    void operator()(const SimulateRequest& req) const {
      if (req.spp == nullptr) {
        throw InvalidArgument("simulate request needs an SPP instance");
      }
      if (!sim::is_scenario_name(req.scenario)) {
        throw InvalidArgument("unknown simulation scenario '" + req.scenario +
                              "' (expected one of: steady, staged, "
                              "link-flap, session-reset)");
      }
      if (!sim::is_suppression_name(req.suppression)) {
        throw InvalidArgument("unknown suppression policy '" +
                              req.suppression +
                              "' (expected one of: none, split-horizon, "
                              "poisoned-reverse)");
      }
      if (req.max_steps.has_value() && *req.max_steps == 0) {
        throw InvalidArgument("simulate max-steps must be >= 1");
      }
    }
    void operator()(const StatsRequest&) const {}  // no payload to check
    void operator()(const DebugRequest&) const {}  // no payload to check
  };
  std::visit(Visitor{}, request);
}

RequestIdentity identity(const Request& request,
                         const ServiceOptions& options) {
  validate(request);
  RequestIdentity id;
  const RequestKind kind = kind_of(request);
  if (kind == RequestKind::stats || kind == RequestKind::debug) return id;
  id.head = identity_tag(kind);
  const auto seed = [&id](std::uint64_t value) {
    id.head += "|seed=" + std::to_string(value);
  };
  const auto instance = [&id](const spp::SppInstance& spp) {
    // The SPP canonical form carries no shape tag of its own (fingerprints
    // digest it bare), so the head adds one.
    id.head += "|spp|";
    id.payload = spp::canonical_spp(spp);
  };
  const auto policy = [&id](const algebra::RoutingAlgebra& algebra) {
    id.head += "|";
    id.payload = "alg|" + algebra.name() + "|" +
                 algebra::canonical_spec(algebra.symbolic());
  };

  if (const auto* req = std::get_if<AnalyzeSafetyRequest>(&request)) {
    if (req->spp != nullptr) {
      instance(*req->spp);
    } else {
      policy(*req->algebra);
    }
  } else if (const auto* req = std::get_if<GroundTruthRequest>(&request)) {
    instance(*req->spp);
    id.options = "|gt|" + groundtruth::options_key(
                              req->mode.value_or(options.ground_truth),
                              options.ground_truth_options);
  } else if (const auto* req = std::get_if<RepairRequest>(&request)) {
    seed(req->seed);
    instance(*req->spp);
    id.options = "|repair|" + repair::options_key(options.repair);
  } else if (const auto* req = std::get_if<EmulateRequest>(&request)) {
    seed(req->seed);
    if (req->spp != nullptr) {
      instance(*req->spp);
    } else {
      policy(*req->algebra);
      id.payload += "|topo|" + topology::canonical_topology(*req->topology);
    }
  } else if (const auto* req = std::get_if<SimulateRequest>(&request)) {
    seed(req->seed);
    instance(*req->spp);
    id.options = "|sim|" + sim::options_key(sim_options(*req, options.sim));
  }
  return id;
}

std::string fingerprint(const Request& request) {
  static const ServiceOptions k_defaults;
  const RequestIdentity id = identity(request, k_defaults);
  // Stats and debug requests carry no payload: an empty fingerprint keeps
  // them away from the session cache (nothing to warm, nothing to evict).
  return id.head.empty() ? std::string() : util::content_digest(id.payload);
}

sim::SimOptions sim_options(const SimulateRequest& request,
                            const sim::SimOptions& base) {
  sim::SimOptions options = base;
  options.seed = request.seed;
  options.scenario = request.scenario;
  options.suppression = request.suppression;
  if (request.max_steps.has_value()) options.max_steps = *request.max_steps;
  return options;
}

}  // namespace fsr::api
