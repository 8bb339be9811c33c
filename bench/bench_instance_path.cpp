// The instance path of one inline-SPP request, stage by stage: how long
// fsr_serve spends turning a wire line into an SPP instance, fingerprinting
// it, and translating it into its routing algebra (informational — no CI
// gate; raw microseconds depend on the runner).
//
// The request lines are built in process: 64 random instances of 10-14
// nodes (spp::random_spp_instance, the default path shape), each rendered
// as an `analyze-safety` line with an inline "spp" payload of about 2 KB.
// Each stage then runs over every line, pass after pass:
//
//   json_parse        api::json::parse(line)
//   parse_request     api::wire::parse_request(line) (parse + instance build)
//   fingerprint       api::fingerprint(request)
//   algebra_from_spp  spp::algebra_from_spp(instance) (Section III-B)
//   symbolic          the translated algebra's symbolic() spec
//
// The stages take turns pass by pass, and each reports its fastest pass's
// mean microseconds per call (host load only ever slows a pass down).
// Compare two builds by running both on the same host.
//
//   bench_instance_path [--json FILE]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/json.h"
#include "api/request.h"
#include "api/wire.h"
#include "bench_util.h"
#include "spp/random.h"
#include "spp/translate.h"
#include "util/strings.h"

namespace {

using namespace fsr;

constexpr int k_instances = 64;
constexpr int k_passes = 41;

std::string inline_line(const spp::SppInstance& instance) {
  std::string out = "{\"kind\": \"analyze-safety\", \"spp\": {\"name\": " +
                    util::json_quoted(instance.name()) +
                    ", \"destination\": " +
                    util::json_quoted(instance.destination()) +
                    ", \"edges\": [";
  for (std::size_t i = 0; i < instance.edges().size(); ++i) {
    const auto& [u, v] = instance.edges()[i];
    out += (i > 0 ? ", [" : "[") + util::json_quoted(u) + ", " +
           util::json_quoted(v) + "]";
  }
  out += "], \"paths\": [";
  bool first = true;
  for (const std::string& node : instance.nodes()) {
    for (const spp::Path& path : instance.permitted(node)) {
      out += first ? "[" : ", [";
      first = false;
      for (std::size_t i = 0; i < path.size(); ++i) {
        out += (i > 0 ? ", " : "") + util::json_quoted(path[i]);
      }
      out += "]";
    }
  }
  return out + "]}}";
}

struct Stage {
  std::string metric;
  std::function<void(std::size_t)> call;  // one call on input i
};

/// Times k_passes passes of every stage over `count` inputs, the stages
/// interleaved pass by pass so a burst of host load cannot land on one
/// stage alone; returns each stage's fastest pass as mean microseconds
/// per call.
std::map<std::string, double> fastest_pass_us(std::size_t count,
                                              const std::vector<Stage>& stages) {
  std::map<std::string, double> fastest;
  for (int pass = 0; pass < k_passes; ++pass) {
    for (const Stage& stage : stages) {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < count; ++i) stage.call(i);
      const std::chrono::duration<double, std::micro> elapsed =
          std::chrono::steady_clock::now() - start;
      const double mean = elapsed.count() / static_cast<double>(count);
      const auto [it, first] = fastest.emplace(stage.metric, mean);
      if (!first && mean < it->second) it->second = mean;
    }
  }
  return fastest;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_instance_path [--json FILE]\n");
      return 2;
    }
  }

  std::vector<std::string> lines;
  std::size_t bytes = 0;
  std::size_t signatures = 0;
  for (int j = 0; j < k_instances; ++j) {
    spp::RandomSppShape shape;
    shape.min_nodes = shape.max_nodes = 10 + j % 5;
    const std::uint64_t seed = 1001 + static_cast<std::uint64_t>(j);
    const spp::SppInstance instance = spp::random_spp_instance(
        "random-" + std::to_string(seed), seed, shape);
    lines.push_back(inline_line(instance));
    bytes += lines.back().size();
    signatures += instance.permitted_path_count();
  }
  const std::size_t count = lines.size();

  std::vector<api::Request> requests;
  std::vector<const spp::SppInstance*> instances;
  for (const std::string& line : lines) {
    requests.push_back(api::wire::parse_request(line));
    instances.push_back(
        std::get<api::AnalyzeSafetyRequest>(requests.back()).spp.get());
  }
  std::vector<algebra::AlgebraPtr> algebras;
  for (const spp::SppInstance* instance : instances) {
    algebras.push_back(spp::algebra_from_spp(*instance));
  }

  std::size_t sink = 0;  // keeps every stage's result observable
  const std::map<std::string, double> metrics = fastest_pass_us(
      count,
      {{"instance_path_json_parse_us",
        [&](std::size_t i) {
          sink += api::json::parse(lines[i]).as_object("request").size();
        }},
       {"instance_path_parse_request_us",
        [&](std::size_t i) {
          sink += api::wire::parse_request(lines[i]).index();
        }},
       {"instance_path_fingerprint_us",
        [&](std::size_t i) { sink += api::fingerprint(requests[i]).size(); }},
       {"instance_path_algebra_from_spp_us",
        [&](std::size_t i) {
          sink += spp::algebra_from_spp(*instances[i])->name().size();
        }},
       {"instance_path_symbolic_us", [&](std::size_t i) {
          sink += algebras[i]->symbolic().extensions.size();
        }}});

  bench::print_banner("instance path: " + std::to_string(count) +
                      " inline-SPP lines");
  std::printf("mean line %zu bytes, %.1f signatures per instance "
              "(checksum %zu)\n",
              bytes / count,
              static_cast<double>(signatures) / static_cast<double>(count),
              sink);
  bench::print_row({"stage", "mean us/call"});
  for (const auto& [name, value] : metrics) {
    char cell[32];
    std::snprintf(cell, sizeof(cell), "%.2f", value);
    bench::print_row({name.substr(std::strlen("instance_path_")), cell});
  }
  if (!json_path.empty() && !bench::write_metrics_file(json_path, metrics)) {
    std::fprintf(stderr, "bench_instance_path: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  return 0;
}
