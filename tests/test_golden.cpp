// Golden corpora, snapshotted under tests/golden/ and diffed byte-exactly
// on every run — any drift in the search, the ranking, the oracle
// verdicts, the safety encoding, or the JSON rendering fails loudly here
// before it reaches a user:
//
//   *.repair.json  the full gadget library's fsr_repair JSON;
//   *.safety.json  fsr_serve's analyze-safety response line for every
//                  gadget, every standard policy, and seeded random
//                  instances (some at the 10-14 node sizes the
//                  engine-mixed load uses).
//
// Regenerating after an INTENDED change (review the diff before
// committing!):
//
//   FSR_UPDATE_GOLDEN=1 ./build/test_golden
//
// Runs under the `golden` ctest label: `ctest -L golden`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "repair/repair_engine.h"
#include "spp/gadgets.h"

#ifndef FSR_GOLDEN_DIR
#error "FSR_GOLDEN_DIR must point at the source tree's tests/golden"
#endif

namespace fsr::repair {
namespace {

constexpr std::uint64_t k_seed = 7;  // drives only the SPVP trials

std::vector<std::pair<std::string, spp::SppInstance>> corpus() {
  std::vector<std::pair<std::string, spp::SppInstance>> out;
  out.emplace_back("good", spp::good_gadget());
  out.emplace_back("bad", spp::bad_gadget());
  out.emplace_back("disagree", spp::disagree_gadget());
  out.emplace_back("ibgp-figure3", spp::ibgp_figure3_gadget());
  out.emplace_back("ibgp-figure3-fixed", spp::ibgp_figure3_fixed());
  for (const int length : {2, 4, 8}) {
    out.emplace_back("bad-chain-" + std::to_string(length),
                     spp::bad_gadget_chain(length));
  }
  return out;
}

/// Diffs `rendered` against tests/golden/`file`, or (re)writes the
/// snapshot under FSR_UPDATE_GOLDEN.
void expect_matches_snapshot(const std::string& rendered,
                             const std::string& file) {
  const std::string path = std::string(FSR_GOLDEN_DIR) + "/" + file;
  if (std::getenv("FSR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden snapshot " << path
      << " — generate it with FSR_UPDATE_GOLDEN=1 ./build/test_golden";
  std::ostringstream disk;
  disk << in.rdbuf();
  EXPECT_EQ(rendered, disk.str())
      << file << " drifted from its snapshot; if the change is intended, "
         "regenerate with FSR_UPDATE_GOLDEN=1 ./build/test_golden and review "
         "the diff";
}

TEST(GoldenRepair, ReportsMatchTheSnapshots) {
  const RepairEngine engine;  // default options = the documented behaviour
  for (const auto& [name, instance] : corpus()) {
    SCOPED_TRACE(name);
    expect_matches_snapshot(to_json(engine.repair(instance, k_seed)),
                            name + ".repair.json");
  }
}

/// (snapshot name, analyze-safety payload) over the wire.
std::vector<std::pair<std::string, std::string>> safety_corpus() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* gadget :
       {"good", "bad", "disagree", "ibgp-figure3", "ibgp-figure3-fixed",
        "good-chain-2", "good-chain-4", "good-chain-8", "bad-chain-2",
        "bad-chain-4", "bad-chain-8", "bad-chain-16"}) {
    out.emplace_back(gadget, std::string("\"gadget\": \"") + gadget + "\"");
  }
  for (const char* policy :
       {"guideline-a", "guideline-b", "backup", "bandwidth",
        "widest-shortest", "gao-rexford-hop-count"}) {
    out.emplace_back(std::string("policy-") + policy,
                     std::string("\"policy\": \"") + policy + "\"");
  }
  for (const int seed : {1, 2, 3, 4}) {
    out.emplace_back("random-" + std::to_string(seed),
                     "\"random\": {\"seed\": " + std::to_string(seed) + "}");
  }
  // The engine-mixed load's sizes (loadbench/workloads.py).
  for (const auto& [seed, nodes] :
       std::vector<std::pair<int, int>>{{1001, 10}, {1002, 11}, {1003, 12},
                                        {1004, 14}}) {
    const std::string n = std::to_string(nodes);
    out.emplace_back("random-" + std::to_string(seed) + "-n" + n,
                     "\"random\": {\"seed\": " + std::to_string(seed) +
                         ", \"min_nodes\": " + n + ", \"max_nodes\": " + n +
                         "}");
  }
  return out;
}

TEST(GoldenSafety, ResponsesMatchTheSnapshots) {
  api::AnalysisService service;  // default options = fsr_serve's defaults
  for (const auto& [name, payload] : safety_corpus()) {
    SCOPED_TRACE(name);
    api::Response response = service.call(api::wire::parse_request(
        "{\"kind\": \"analyze-safety\", " + payload + "}"));
    ASSERT_TRUE(response.error.empty()) << response.error;
    response.id = 0;  // each snapshot stands alone, whatever the corpus order
    expect_matches_snapshot(api::wire::render_response(response) + "\n",
                            name + ".safety.json");
  }
}

TEST(GoldenRepair, SnapshotsAreSeedStable) {
  // The deterministic fields must not depend on the SPVP seed beyond what
  // the report admits: re-running the corpus with the SAME seed twice is
  // byte-identical (the golden diff's precondition).
  const RepairEngine engine;
  for (const auto& [name, instance] : corpus()) {
    EXPECT_EQ(to_json(engine.repair(instance, k_seed)),
              to_json(engine.repair(instance, k_seed)))
        << name;
  }
}

}  // namespace
}  // namespace fsr::repair
