#include "fsr/emulation.h"

#include <optional>
#include <utility>

#include "fsr/ndlog_generator.h"
#include "fsr/value_bridge.h"
#include "obs/trace.h"
#include "proto/gpv.h"
#include "proto/hlp.h"
#include "spp/translate.h"
#include "topology/hlp_domains.h"
#include "util/error.h"

namespace fsr {
namespace {

/// Schedules the churn events of `options` against the first origination
/// sig fact: the egress cost flaps by `magnitude` (up on even events,
/// back down on odd ones). Requires an integer-cost signature.
void schedule_churn(
    ndlog::Runtime& runtime, const EmulationOptions& options,
    const std::vector<std::pair<std::string, ndlog::Tuple>>& originations) {
  if (options.churn.events <= 0) return;
  if (originations.empty()) {
    throw InvalidArgument("churn requested but nothing originates routes");
  }
  const auto& [node, base_tuple] = originations.front();
  if (!base_tuple.at(1).is_integer()) {
    throw InvalidArgument(
        "churn injection needs an integer-cost policy (PV or HLP)");
  }
  ndlog::Tuple bumped = base_tuple;
  bumped[1] = ndlog::Value::integer(base_tuple.at(1).as_integer() +
                                    options.churn.magnitude);
  for (std::int32_t event = 0; event < options.churn.events; ++event) {
    const net::Time when =
        options.churn.start + event * options.churn.interval;
    const bool up = event % 2 == 0;
    const ndlog::Tuple& retract = up ? base_tuple : bumped;
    const ndlog::Tuple& assert_tuple = up ? bumped : base_tuple;
    runtime.simulator().schedule(
        when, [&runtime, node = node, retract, assert_tuple]() {
          runtime.apply_delta(node, ndlog::Delta{"sig", retract, -1});
          runtime.apply_delta(node, ndlog::Delta{"sig", assert_tuple, +1});
        });
  }
}

}  // namespace

EmulationResult emulate_gpv(const algebra::RoutingAlgebra& algebra,
                            const topology::Topology& topology,
                            const EmulationOptions& options) {
  // emulate.setup spans everything up to the run: program, runtime, nodes,
  // links, facts and churn.
  std::optional<obs::Span> setup_span(std::in_place, "emulate.setup");
  // Mechanism + policy: the GPV template with the algebra's functions.
  const ndlog::Program program = proto::gpv_program();
  ndlog::FunctionRegistry registry = ndlog::FunctionRegistry::with_builtins();
  register_policy_functions(algebra, registry);

  net::Simulator simulator(options.seed, options.host_profile,
                           options.stats_bucket);
  ndlog::RuntimeOptions runtime_options;
  runtime_options.batch_interval = options.batch_interval;
  runtime_options.batch_drift = options.batch_drift;
  runtime_options.tracked_relation = "localOpt";
  ndlog::Runtime runtime(simulator, program, &registry, runtime_options);

  for (const std::string& node : topology.nodes) {
    runtime.add_node(node);
  }
  for (const topology::TopoLink& link : topology.links) {
    runtime.add_link(link.u, link.v, link.net_config);
  }

  // Step 4: label facts for every directed link...
  for (const topology::TopoLink& link : topology.links) {
    runtime.insert_fact(link.u, "label",
                        {ndlog::Value::atom(link.u), ndlog::Value::atom(link.v),
                         to_ndlog(link.label_uv)});
    runtime.insert_fact(link.v, "label",
                        {ndlog::Value::atom(link.v), ndlog::Value::atom(link.u),
                         to_ndlog(link.label_vu)});
  }
  // ...and origination sig facts for one-hop paths to the destination.
  std::vector<std::pair<std::string, ndlog::Tuple>> originations;
  for (const topology::TopoLink& link : topology.links) {
    const auto originate = [&](const std::string& node,
                               const algebra::Value& label) {
      if (node == topology.destination) return;
      const auto sig = algebra.originate(label);
      if (!sig.has_value()) return;
      ndlog::Tuple tuple = {
          ndlog::Value::atom(node), to_ndlog(*sig),
          ndlog::Value::list({ndlog::Value::atom(node),
                              ndlog::Value::atom(topology.destination)})};
      originations.emplace_back(node, tuple);
      runtime.insert_fact(node, "sig", std::move(tuple));
    };
    if (link.v == topology.destination) originate(link.u, link.label_uv);
    if (link.u == topology.destination) originate(link.v, link.label_vu);
  }
  schedule_churn(runtime, options, originations);
  setup_span.reset();

  const ndlog::RunResult run = [&] {
    const obs::Span run_span("emulate.run");
    return runtime.run(options.max_time);
  }();

  EmulationResult result;
  result.quiesced = run.quiesced;
  result.convergence_time = run.convergence_time;
  result.end_time = run.end_time;
  result.messages = run.messages;
  result.bytes = run.bytes;
  result.route_changes = run.tracked_changes;
  result.node_count = topology.nodes.size();
  result.stats_bucket = options.stats_bucket;

  const net::TrafficStats& stats = runtime.stats();
  result.bandwidth_series_mbps.reserve(stats.bucket_bytes().size());
  for (std::size_t bucket = 0; bucket < stats.bucket_bytes().size();
       ++bucket) {
    result.bandwidth_series_mbps.push_back(
        stats.average_node_bandwidth_mbps(bucket, topology.nodes.size()));
  }

  for (const std::string& node : topology.nodes) {
    for (const ndlog::Tuple& tuple :
         runtime.engine(node).relation_contents("localOpt")) {
      // localOpt(@U, D, S, P)
      std::vector<std::string> path;
      for (const ndlog::Value& hop : tuple.at(3).as_list()) {
        path.push_back(hop.as_atom());
      }
      result.best_routes[node] = {tuple.at(2).to_string(), std::move(path)};
    }
  }
  return result;
}

topology::Topology spp_topology(const spp::SppInstance& instance,
                                net::LinkConfig link_config) {
  topology::Topology topology;
  topology.name = "spp:" + instance.name();
  topology.destination = instance.destination();
  topology.nodes = instance.nodes();
  topology.nodes.push_back(instance.destination());
  for (const auto& [u, v] : instance.edges()) {
    topology.links.push_back(topology::TopoLink{
        u, v, algebra::Value::atom(spp::spp_label(u, v)),
        algebra::Value::atom(spp::spp_label(v, u)), link_config});
  }
  return topology;
}

EmulationResult emulate_spp(const spp::SppInstance& instance,
                            const EmulationOptions& options,
                            net::LinkConfig link_config) {
  const algebra::AlgebraPtr algebra = [&] {
    const obs::Span translate_span("safety.translate");
    return spp::algebra_from_spp(instance);
  }();
  return emulate_gpv(*algebra, spp_topology(instance, link_config), options);
}

EmulationResult emulate_hlp(const topology::Topology& topology,
                            std::int64_t hide_threshold,
                            const EmulationOptions& options) {
  if (hide_threshold < 0) {
    throw InvalidArgument("hide_threshold must be non-negative");
  }
  const ndlog::Program program = proto::hlp_program();
  ndlog::FunctionRegistry registry = ndlog::FunctionRegistry::with_builtins();

  // f_hlpHide(P, Dom): the fragmented path — own-domain marker, then the
  // markers already collected, then the destination (last element).
  registry.register_function(
      "f_hlpHide", 2, [](const std::vector<ndlog::Value>& args) {
        const auto& path = args[0].as_list();
        const std::string& marker = args[1].as_atom();
        std::vector<ndlog::Value> hidden;
        hidden.push_back(ndlog::Value::atom(marker));
        for (std::size_t i = 0; i < path.size(); ++i) {
          const ndlog::Value& hop = path[i];
          const bool is_marker =
              hop.is_atom() && hop.as_atom().starts_with("dom");
          const bool is_destination = i + 1 == path.size();
          if ((is_marker || is_destination) && hop != hidden.back()) {
            hidden.push_back(hop);
          }
        }
        return ndlog::Value::list(std::move(hidden));
      });
  // f_hideCost(C): quantise down to the hiding threshold.
  registry.register_function(
      "f_hideCost", 1,
      [hide_threshold](const std::vector<ndlog::Value>& args) {
        const std::int64_t cost = args[0].as_integer();
        if (hide_threshold <= 1) return ndlog::Value::integer(cost);
        return ndlog::Value::integer(cost - cost % hide_threshold);
      });

  net::Simulator simulator(options.seed, options.host_profile,
                           options.stats_bucket);
  ndlog::RuntimeOptions runtime_options;
  runtime_options.batch_interval = options.batch_interval;
  runtime_options.batch_drift = options.batch_drift;
  runtime_options.tracked_relation = "localOpt";
  ndlog::Runtime runtime(simulator, program, &registry, runtime_options);

  for (const std::string& node : topology.nodes) runtime.add_node(node);
  for (const topology::TopoLink& link : topology.links) {
    runtime.add_link(link.u, link.v, link.net_config);
  }

  for (const topology::TopoLink& link : topology.links) {
    const char* type =
        topology::is_cross_domain(topology, link) ? "inter" : "intra";
    runtime.insert_fact(link.u, "link",
                        {ndlog::Value::atom(link.u), ndlog::Value::atom(link.v),
                         to_ndlog(link.label_uv), ndlog::Value::atom(type)});
    runtime.insert_fact(link.v, "link",
                        {ndlog::Value::atom(link.v), ndlog::Value::atom(link.u),
                         to_ndlog(link.label_vu), ndlog::Value::atom(type)});
  }
  for (const auto& [node, marker] : topology.domain_of) {
    if (node == topology.destination) continue;
    runtime.insert_fact(
        node, "domain", {ndlog::Value::atom(node), ndlog::Value::atom(marker)});
  }
  // Origination: nodes adjacent to the destination start with a one-hop
  // route at the link's cost.
  std::vector<std::pair<std::string, ndlog::Tuple>> originations;
  for (const topology::TopoLink& link : topology.links) {
    const auto originate = [&](const std::string& node,
                               const algebra::Value& label) {
      if (node == topology.destination) return;
      ndlog::Tuple tuple = {
          ndlog::Value::atom(node), ndlog::Value::integer(label.as_integer()),
          ndlog::Value::list({ndlog::Value::atom(node),
                              ndlog::Value::atom(topology.destination)})};
      originations.emplace_back(node, tuple);
      runtime.insert_fact(node, "sig", std::move(tuple));
    };
    if (link.v == topology.destination) originate(link.u, link.label_uv);
    if (link.u == topology.destination) originate(link.v, link.label_vu);
  }
  schedule_churn(runtime, options, originations);

  const ndlog::RunResult run = runtime.run(options.max_time);

  EmulationResult result;
  result.quiesced = run.quiesced;
  result.convergence_time = run.convergence_time;
  result.end_time = run.end_time;
  result.messages = run.messages;
  result.bytes = run.bytes;
  result.route_changes = run.tracked_changes;
  result.node_count = topology.nodes.size();
  result.stats_bucket = options.stats_bucket;
  const net::TrafficStats& stats = runtime.stats();
  for (std::size_t bucket = 0; bucket < stats.bucket_bytes().size();
       ++bucket) {
    result.bandwidth_series_mbps.push_back(
        stats.average_node_bandwidth_mbps(bucket, topology.nodes.size()));
  }
  for (const std::string& node : topology.nodes) {
    for (const ndlog::Tuple& tuple :
         runtime.engine(node).relation_contents("localOpt")) {
      std::vector<std::string> path;
      for (const ndlog::Value& hop : tuple.at(3).as_list()) {
        path.push_back(hop.as_atom());
      }
      result.best_routes[node] = {tuple.at(2).to_string(), std::move(path)};
    }
  }
  return result;
}

}  // namespace fsr
