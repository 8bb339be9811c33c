// Tests for the SPP substrate: instance validation, the gadget library's
// ground-truth stable-state structure, the asynchronous SPVP simulator,
// and the SPP -> algebra translation of Section III-B (including the
// paper's eighteen-constraint Figure-3 encoding), plus the canonical form
// and the random-instance generator.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "algebra/finite_algebra.h"
#include "spp/gadgets.h"
#include "spp/random.h"
#include "spp/spp.h"
#include "spp/translate.h"
#include "util/error.h"
#include "util/rng.h"

namespace fsr::spp {
namespace {

// ------------------------------------------------------------ instance --

TEST(SppInstance, ValidatesPaths) {
  SppInstance instance("t");
  instance.add_edge("1", "0");
  instance.add_edge("1", "2");
  EXPECT_THROW(instance.add_permitted_path({"1"}), InvalidArgument);
  EXPECT_THROW(instance.add_permitted_path({"1", "2"}), InvalidArgument);
  EXPECT_THROW(instance.add_permitted_path({"0", "1", "0"}), InvalidArgument);
  EXPECT_THROW(instance.add_permitted_path({"2", "0"}), InvalidArgument);
  EXPECT_THROW(instance.add_permitted_path({"1", "1", "0"}), InvalidArgument);
  instance.add_permitted_path({"1", "0"});
  EXPECT_EQ(instance.permitted("1").size(), 1u);
}

TEST(SppInstance, ErrorTextsAreStable) {
  // Each step runs on a fresh instance with edges 0-1, 1-2 and the chain
  // a1-...-a20-0; the literals are the messages the checks have always
  // produced.
  const auto error_of =
      [](const std::function<void(SppInstance&)>& step) -> std::string {
    SppInstance instance("t");
    instance.add_edge("1", "0");
    instance.add_edge("1", "2");
    for (int i = 1; i < 20; ++i) {
      instance.add_edge("a" + std::to_string(i), "a" + std::to_string(i + 1));
    }
    instance.add_edge("a20", "0");
    try {
      step(instance);
    } catch (const InvalidArgument& error) {
      return error.what();
    }
    return "accepted";
  };
  const auto path_step = [](Path path) {
    return [path](SppInstance& instance) { instance.add_permitted_path(path); };
  };
  Path chain;
  for (int i = 1; i <= 20; ++i) chain.push_back("a" + std::to_string(i));
  chain.push_back("0");
  Path looped = chain;
  looped.insert(looped.end() - 1, "a7");

  EXPECT_EQ(error_of([](SppInstance& i) { i.add_edge("3", "3"); }),
            "self-loop edge at '3'");
  EXPECT_EQ(error_of(path_step({"1"})),
            "permitted path must have at least two nodes");
  EXPECT_EQ(error_of(path_step({"1", "2"})),
            "permitted path 1-2 must end at destination '0'");
  EXPECT_EQ(error_of(path_step({"0", "1", "0"})),
            "permitted path may not start at the destination");
  EXPECT_EQ(error_of(path_step({"1", "2", "1", "0"})),
            "permitted path 1-2-1-0 is not simple");
  EXPECT_EQ(error_of(path_step(looped)),
            "permitted path a1-a2-a3-a4-a5-a6-a7-a8-a9-a10-a11-a12-a13-a14-"
            "a15-a16-a17-a18-a19-a20-a7-0 is not simple");
  EXPECT_EQ(error_of(path_step({"2", "0"})),
            "permitted path 2-0 uses undeclared edge 2-0");
  EXPECT_EQ(error_of(path_step({"2", "1", "a1", "0"})),
            "permitted path 2-1-a1-0 uses undeclared edge 1-a1");
  EXPECT_EQ(error_of(path_step(chain)), "accepted");
}

TEST(SppInstance, RankOfReflectsInsertionOrder) {
  const SppInstance g = good_gadget();
  EXPECT_EQ(g.rank_of({"1", "3", "0"}), 0u);
  EXPECT_EQ(g.rank_of({"1", "0"}), 1u);
  EXPECT_EQ(g.rank_of({"1", "2", "0"}), std::nullopt);
}

TEST(SppInstance, EdgesDeduplicated) {
  SppInstance instance("t");
  instance.add_edge("1", "2");
  instance.add_edge("2", "1");
  EXPECT_EQ(instance.edges().size(), 1u);
  EXPECT_TRUE(instance.has_edge("2", "1"));
}

TEST(SppInstance, RejectsSelfLoop) {
  SppInstance instance("t");
  EXPECT_THROW(instance.add_edge("1", "1"), InvalidArgument);
}

TEST(SppInstance, NodesExcludeDestination) {
  const SppInstance g = disagree_gadget();
  const auto nodes = g.nodes();
  EXPECT_EQ(nodes.size(), 2u);
  for (const auto& n : nodes) EXPECT_NE(n, "0");
}

// ------------------------------------------------- stable enumeration --

TEST(StableStates, GoodGadgetHasUniqueSolution) {
  const auto stable = enumerate_stable_assignments(good_gadget());
  ASSERT_EQ(stable.size(), 1u);
  const Assignment& a = stable.front();
  EXPECT_EQ(a.at("1"), (Path{"1", "3", "0"}));
  EXPECT_EQ(a.at("2"), (Path{"2", "0"}));
  EXPECT_EQ(a.at("3"), (Path{"3", "0"}));
}

TEST(StableStates, BadGadgetHasNoSolution) {
  EXPECT_TRUE(enumerate_stable_assignments(bad_gadget()).empty());
}

TEST(StableStates, DisagreeHasExactlyTwoSolutions) {
  const auto stable = enumerate_stable_assignments(disagree_gadget());
  EXPECT_EQ(stable.size(), 2u);
}

TEST(StableStates, Figure3GadgetHasNoSolution) {
  // The iBGP reflection instance oscillates: no stable assignment.
  EXPECT_TRUE(enumerate_stable_assignments(ibgp_figure3_gadget()).empty());
}

TEST(StableStates, Figure3FixedHasSolution) {
  const auto stable = enumerate_stable_assignments(ibgp_figure3_fixed());
  ASSERT_FALSE(stable.empty());
  // In every stable state each reflector uses its own client's egress.
  for (const Assignment& a : stable) {
    EXPECT_EQ(a.at("a"), (Path{"a", "d", "0"}));
    EXPECT_EQ(a.at("b"), (Path{"b", "e", "0"}));
    EXPECT_EQ(a.at("c"), (Path{"c", "f", "0"}));
  }
}

TEST(StableStates, EnumerationGuardsSearchSpace) {
  EXPECT_THROW(
      enumerate_stable_assignments(good_gadget_chain(30), /*max_states=*/100),
      InvalidArgument);
}

TEST(StableStates, StabilityPredicateMatchesEnumeration) {
  const auto stable = enumerate_stable_assignments(disagree_gadget());
  for (const Assignment& assignment : stable) {
    EXPECT_TRUE(is_stable_assignment(disagree_gadget(), assignment));
  }
  // Perturbing a stable state breaks the predicate.
  Assignment broken = stable.front();
  broken.erase(broken.begin()->first);
  EXPECT_FALSE(is_stable_assignment(disagree_gadget(), broken));
  EXPECT_FALSE(is_stable_assignment(bad_gadget(), {}));
}

TEST(StableStates, BudgetedScanStopsInsteadOfThrowing) {
  // The full space of good_gadget_chain(8) is 3^24 states; a 1000-state
  // budget must stop cleanly and say so.
  const BudgetedEnumeration capped =
      enumerate_stable_assignments_budgeted(good_gadget_chain(8), 1000);
  EXPECT_FALSE(capped.complete);
  EXPECT_EQ(capped.states_scanned, 1000u);

  const BudgetedEnumeration full =
      enumerate_stable_assignments_budgeted(disagree_gadget(), 1u << 20);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.states_scanned, 9u);  // 3 options x 3 options
  EXPECT_EQ(full.assignments.size(), 2u);

  // The solutions bound also ends the scan early.
  const BudgetedEnumeration bounded = enumerate_stable_assignments_budgeted(
      disagree_gadget(), 1u << 20, /*max_solutions=*/1);
  EXPECT_FALSE(bounded.complete);
  EXPECT_EQ(bounded.assignments.size(), 1u);
}

TEST(StableStates, BudgetedScanNamesTheExhaustedBudget) {
  // An incomplete scan says WHICH budget ended it — the repair report
  // surfaces this instead of a bare not_applicable.
  const BudgetedEnumeration states_out =
      enumerate_stable_assignments_budgeted(good_gadget_chain(8), 1000);
  EXPECT_EQ(states_out.stopped_by, EnumerationStop::state_budget);
  const BudgetedEnumeration solutions_out =
      enumerate_stable_assignments_budgeted(disagree_gadget(), 1u << 20,
                                            /*max_solutions=*/1);
  EXPECT_EQ(solutions_out.stopped_by, EnumerationStop::solution_budget);
  const BudgetedEnumeration done =
      enumerate_stable_assignments_budgeted(disagree_gadget(), 1u << 20);
  EXPECT_EQ(done.stopped_by, EnumerationStop::completed);
  EXPECT_STREQ(to_string(EnumerationStop::completed), "completed");
  EXPECT_STREQ(to_string(EnumerationStop::state_budget), "state-budget");
  EXPECT_STREQ(to_string(EnumerationStop::solution_budget),
               "solution-budget");
}

// ----------------------------------------------------------- SPVP sim --

TEST(Spvp, GoodGadgetConvergesToTheUniqueSolution) {
  util::Rng rng(1);
  const SpvpResult r = simulate_spvp(good_gadget(), rng);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.final_assignment.at("1"), (Path{"1", "3", "0"}));
}

TEST(Spvp, BadGadgetNeverConverges) {
  util::Rng rng(2);
  const SpvpResult r = simulate_spvp(bad_gadget(), rng, 20000);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.activations, 20000u);
  EXPECT_GT(r.route_changes, 100u);  // sustained oscillation, not silence
}

TEST(Spvp, DisagreeConvergesToOneOfTwoStates) {
  const auto stable = enumerate_stable_assignments(disagree_gadget());
  ASSERT_EQ(stable.size(), 2u);
  int seen_first = 0;
  for (int seed = 0; seed < 20; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed));
    const SpvpResult r = simulate_spvp(disagree_gadget(), rng);
    ASSERT_TRUE(r.converged);
    const bool is_first = r.final_assignment == stable[0];
    const bool is_second = r.final_assignment == stable[1];
    EXPECT_TRUE(is_first || is_second);
    if (is_first) ++seen_first;
  }
  // Both outcomes are reachable across seeds (non-determinism is real).
  EXPECT_GT(seen_first, 0);
  EXPECT_LT(seen_first, 20);
}

TEST(Spvp, Figure3GadgetOscillates) {
  util::Rng rng(3);
  const SpvpResult r = simulate_spvp(ibgp_figure3_gadget(), rng, 20000);
  EXPECT_FALSE(r.converged);
}

TEST(Spvp, Figure3FixedConverges) {
  util::Rng rng(4);
  const SpvpResult r = simulate_spvp(ibgp_figure3_fixed(), rng);
  EXPECT_TRUE(r.converged);
}

// --------------------------------------------------------- translation --

TEST(Translate, Figure3ProducesEighteenConstraints) {
  const auto a = algebra_from_spp(ibgp_figure3_gadget());
  const algebra::SymbolicSpec spec = a->symbolic();
  // 15 permitted paths -> 15 signatures.
  EXPECT_EQ(spec.signatures.size(), 15u);
  // 9 pairwise ranking constraints (1+1+1+2+2+2).
  EXPECT_EQ(spec.preferences.size(), 9u);
  // 9 concatenation entries (paths whose suffix is itself permitted).
  EXPECT_EQ(spec.extensions.size(), 9u);
  // Together: the paper's "eighteen constraints" for this instance.
  EXPECT_EQ(spec.preferences.size() + spec.extensions.size(), 18u);
}

TEST(Translate, LabelsAndComplements) {
  const auto a = algebra_from_spp(disagree_gadget());
  EXPECT_EQ(a->complement(algebra::Value::atom(spp_label("1", "2"))),
            algebra::Value::atom(spp_label("2", "1")));
}

TEST(Translate, ExtensionReplaysSppDynamics) {
  const auto a = algebra_from_spp(good_gadget());
  // 1 extends 3's direct route over link 1->3: permitted, yields r(1-3-0).
  const auto extended =
      a->extend(algebra::Value::atom(spp_label("1", "3")),
                algebra::Value::atom(spp_signature({"3", "0"})));
  ASSERT_TRUE(extended.has_value());
  EXPECT_EQ(extended->as_atom(), spp_signature({"1", "3", "0"}));
  // 2 extending 3's route is not permitted anywhere: phi.
  EXPECT_FALSE(a->extend(algebra::Value::atom(spp_label("2", "1")),
                         algebra::Value::atom(spp_signature({"3", "0"})))
                   .has_value());
}

TEST(Translate, OriginationCoversOneHopPermittedPaths) {
  const auto a = algebra_from_spp(good_gadget());
  const auto orig = a->originate(algebra::Value::atom(spp_label("3", "0")));
  ASSERT_TRUE(orig.has_value());
  EXPECT_EQ(orig->as_atom(), spp_signature({"3", "0"}));
}

TEST(Translate, PerNodeRankingBecomesStrictPreference) {
  const auto a = algebra_from_spp(good_gadget());
  EXPECT_EQ(a->compare(algebra::Value::atom(spp_signature({"1", "3", "0"})),
                       algebra::Value::atom(spp_signature({"1", "0"}))),
            algebra::Ordering::better);
  // Paths of different nodes are incomparable (partial order; the paper's
  // soundness argument in Section IV-C explains why this is fine).
  EXPECT_EQ(a->compare(algebra::Value::atom(spp_signature({"1", "0"})),
                       algebra::Value::atom(spp_signature({"2", "0"}))),
            algebra::Ordering::incomparable);
}

TEST(Translate, RejectsEmptyInstance) {
  SppInstance empty("empty");
  EXPECT_THROW(algebra_from_spp(empty), InvalidArgument);
}

TEST(Translate, GoodGadgetChainScales) {
  const auto a = algebra_from_spp(good_gadget_chain(4));
  EXPECT_EQ(a->symbolic().signatures.size(), 4u * 6u);
}

// ------------------------------------------------------- gadget names --

TEST(GadgetNames, ChainCountsAreCappedBeforeBuilding) {
  EXPECT_EQ(gadget_by_name("bad-chain-256").nodes().size(), 3u * 256u);
  EXPECT_EQ(gadget_by_name("good-chain-007").nodes().size(), 3u * 7u);
  const auto error_of = [](const std::string& name) -> std::string {
    try {
      gadget_by_name(name);
    } catch (const InvalidArgument& error) {
      return error.what();
    }
    return "accepted";
  };
  EXPECT_EQ(error_of("bad-chain-257"),
            "gadget 'bad-chain-257' is too large: a chain has at most 256 "
            "gadgets");
  // Far past the ceiling, including past every integer type: no wrap.
  for (const char* name :
       {"good-chain-65536", "bad-chain-4294967297",
        "bad-chain-99999999999999999999999999"}) {
    EXPECT_NE(error_of(name).find("is too large"), std::string::npos) << name;
  }
  for (const char* name : {"bad-chain-0", "bad-chain-", "bad-chain--1",
                           "bad-chain-+4", "bad-chain-4x", "bad-chain- 4"}) {
    EXPECT_EQ(error_of(name),
              "unknown gadget '" + std::string(name) +
                  "' (try --list-gadgets)");
  }
  // The builders the benches and tests call directly stay uncapped.
  EXPECT_EQ(bad_gadget_chain(k_max_chain_gadgets + 1).nodes().size(),
            3u * 257u);
}

// ------------------------------------------------- canonical and random --

TEST(Canonical, IgnoresNameButNotContent) {
  SppInstance renamed = good_gadget();
  EXPECT_EQ(canonical_spp(good_gadget()), canonical_spp(renamed));
  EXPECT_NE(canonical_spp(good_gadget()), canonical_spp(bad_gadget()));
}

/// The canonical form as it was first written: `+` temporaries and
/// path_name per path.
std::string reference_canonical(const SppInstance& instance) {
  std::string out = "dest=" + instance.destination() + ";edges=";
  for (const auto& [u, v] : instance.edges()) {
    out += u + "~" + v + ",";
  }
  out += ";paths=";
  for (const std::string& node : instance.nodes()) {
    out += node + ":";
    for (const Path& path : instance.permitted(node)) {
      out += path_name(path) + ",";
    }
    out += ";";
  }
  return out;
}

TEST(Canonical, MatchesTheReferenceOnGadgetsAndRandomInstances) {
  std::vector<SppInstance> instances = {good_gadget(), bad_gadget(),
                                        disagree_gadget(),
                                        ibgp_figure3_gadget(),
                                        ibgp_figure3_fixed()};
  for (const int length : {1, 2, 4, 8, 16}) {
    instances.push_back(good_gadget_chain(length));
    instances.push_back(bad_gadget_chain(length));
  }
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    RandomSppShape shape;
    shape.min_nodes = shape.max_nodes = 3 + static_cast<int>(seed % 12);
    instances.push_back(random_spp_instance("r", seed, shape));
  }
  for (const SppInstance& instance : instances) {
    EXPECT_EQ(canonical_spp(instance), reference_canonical(instance))
        << instance.name();
  }
}

TEST(RandomSpp, DeterministicValidInstances) {
  const RandomSppShape shape;
  const SppInstance one = random_spp_instance("r", 123, shape);
  const SppInstance two = random_spp_instance("r", 123, shape);
  EXPECT_EQ(canonical_spp(one), canonical_spp(two));
  EXPECT_NE(canonical_spp(one),
            canonical_spp(random_spp_instance("r", 124, shape)));
  EXPECT_GT(one.permitted_path_count(), 0u);
  // Every generated path passed SppInstance validation (edges declared,
  // simple, destination-terminated) or add_permitted_path would have
  // thrown during construction.
  for (const std::string& node : one.nodes()) {
    EXPECT_LE(one.permitted(node).size(),
              static_cast<std::size_t>(shape.paths_per_node));
  }
}

TEST(RandomSpp, RejectsInvertedRangesAndOversizedShapesNamingTheField) {
  const auto error_of = [](const RandomSppShape& shape) -> std::string {
    try {
      random_spp_instance("r", 1, shape);
    } catch (const InvalidArgument& error) {
      return error.what();
    }
    return "accepted";
  };
  RandomSppShape inverted;
  inverted.min_nodes = 9;
  inverted.max_nodes = 3;
  EXPECT_EQ(error_of(inverted), "min_nodes must be <= max_nodes");
  RandomSppShape huge;
  huge.max_nodes = RandomSppShape::k_max_nodes + 1;
  EXPECT_EQ(error_of(huge), "max_nodes must be <= 256");
  RandomSppShape bushy;
  bushy.paths_per_node = RandomSppShape::k_max_paths_per_node + 1;
  EXPECT_EQ(error_of(bushy), "paths_per_node must be <= 64");
  RandomSppShape long_paths;
  long_paths.max_path_length = RandomSppShape::k_max_path_length + 1;
  EXPECT_EQ(error_of(long_paths), "max_path_length must be <= 256");

  // The ceilings themselves are accepted.
  RandomSppShape edge;
  edge.paths_per_node = RandomSppShape::k_max_paths_per_node;
  edge.max_path_length = RandomSppShape::k_max_path_length;
  EXPECT_EQ(error_of(edge), "accepted");
}

}  // namespace
}  // namespace fsr::spp
