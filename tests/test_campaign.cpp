// Tests for the scenario-campaign engine: deterministic seed derivation,
// source generation, content canonicalization, in-run deduplication,
// cross-run caching, parallel-vs-serial report identity (the subsystem's
// core contract), and the JSON/table renderers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "algebra/standard_policies.h"
#include "api/request.h"
#include "api/service.h"
#include "campaign/cache.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "campaign/scenario_source.h"
#include "spp/gadgets.h"
#include "topology/as_hierarchy.h"
#include "util/error.h"
#include "util/strings.h"

namespace fsr::campaign {
namespace {

std::vector<std::unique_ptr<ScenarioSource>> quick_sources() {
  std::vector<std::unique_ptr<ScenarioSource>> sources;
  sources.push_back(gadget_source());
  sources.push_back(standard_policy_source());
  RandomSppSweep random_sweep;
  random_sweep.count = 4;
  sources.push_back(random_spp_source(random_sweep));
  return sources;
}

// ------------------------------------------------------------------ seeds --

TEST(ScenarioSeed, DependsOnCampaignSeedIdAndOrdinal) {
  const std::uint64_t base = derive_scenario_seed(1, "gadgets/good", 0);
  EXPECT_EQ(base, derive_scenario_seed(1, "gadgets/good", 0));  // stable
  EXPECT_NE(base, derive_scenario_seed(2, "gadgets/good", 0));
  EXPECT_NE(base, derive_scenario_seed(1, "gadgets/bad", 0));
  EXPECT_NE(base, derive_scenario_seed(1, "gadgets/good", 1));
}

TEST(ScenarioSource, GeneratesUniqueIdsWithDerivedSeeds) {
  CampaignRunner runner;
  const std::vector<Scenario> scenarios = runner.generate(quick_sources());
  ASSERT_FALSE(scenarios.empty());
  std::set<std::string> ids;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_TRUE(ids.insert(scenarios[i].id).second)
        << "duplicate id " << scenarios[i].id;
    EXPECT_EQ(scenarios[i].seed,
              derive_scenario_seed(runner.options().seed, scenarios[i].id, i));
  }
}

// ------------------------------------------------------ request identity --
//
// The runner keys each scenario by api::identity of the request it submits
// (plus, in a repair campaign, its follow-up repair request's option part).

std::string identity_text(const api::Request& request,
                          const api::ServiceOptions& options = {}) {
  return api::identity(request, options).text();
}

TEST(Identity, SeparatesKindsAndSeedsOverOnePayload) {
  const auto gadget =
      std::make_shared<const spp::SppInstance>(spp::good_gadget());
  api::AnalyzeSafetyRequest safety;
  safety.spp = gadget;
  api::EmulateRequest emulation;
  emulation.spp = gadget;
  emulation.seed = 7;
  api::SimulateRequest simulation;
  simulation.spp = gadget;
  simulation.seed = 7;
  api::EmulateRequest emulation_reseeded = emulation;
  emulation_reseeded.seed = 8;
  api::SimulateRequest simulation_reseeded = simulation;
  simulation_reseeded.seed = 8;

  EXPECT_NE(identity_text(safety), identity_text(emulation));
  EXPECT_NE(identity_text(safety), identity_text(simulation));
  EXPECT_NE(identity_text(emulation), identity_text(simulation));
  EXPECT_NE(identity_text(emulation), identity_text(emulation_reseeded));
  EXPECT_NE(identity_text(simulation), identity_text(simulation_reseeded));
  // The payload part is kind-free and seed-free: fingerprint() digests it.
  const api::ServiceOptions options;
  EXPECT_EQ(api::identity(safety, options).payload,
            api::identity(emulation_reseeded, options).payload);
  EXPECT_EQ(api::fingerprint(simulation),
            util::content_digest(api::identity(safety, options).payload));
}

TEST(Identity, SafetyKeysAreSeedFreeWithAndWithoutRepair) {
  // Safety verdicts are seed-independent and repair follow-ups are seeded
  // from content, so scenarios differing only in seed share one key (and
  // one solve) in plain and repair campaigns alike.
  Scenario safety;
  safety.id = "x";
  safety.kind = ScenarioKind::safety;
  safety.seed = 7;
  safety.spp = std::make_shared<const spp::SppInstance>(spp::bad_gadget());
  Scenario reseeded = safety;
  reseeded.id = "y";
  reseeded.seed = 8;
  for (const bool attempt_repair : {false, true}) {
    CampaignOptions options;
    options.attempt_repair = attempt_repair;
    CampaignRunner runner(options);
    const CampaignReport report = runner.run_scenarios({safety, reseeded});
    EXPECT_EQ(report.results[0].content_id, report.results[1].content_id);
    EXPECT_TRUE(report.results[1].deduplicated);
  }
}

TEST(Identity, PayloadlessScenarioRejected) {
  Scenario empty;
  empty.id = "empty";
  EXPECT_THROW(validate_scenario(empty), InvalidArgument);
  EXPECT_THROW(api::identity(api::AnalyzeSafetyRequest{}, {}), InvalidArgument);
}

TEST(CampaignRunner, ContentIdsKeepTheirPublishedValues) {
  // Report content ids and on-disk <digest>.outcome records are digests of
  // the scenario keys, so every key shape must keep its exact bytes: one
  // scenario per shape, each id pinned to the value campaigns have always
  // reported for it.
  const auto bad = std::make_shared<const spp::SppInstance>(spp::bad_gadget());
  const auto good =
      std::make_shared<const spp::SppInstance>(spp::good_gadget());
  const auto scenario = [](std::string id, ScenarioKind kind) {
    Scenario out;
    out.id = std::move(id);
    out.kind = kind;
    out.seed = 7;
    return out;
  };
  Scenario safety_spp = scenario("safety-spp", ScenarioKind::safety);
  safety_spp.spp = bad;
  Scenario safety_algebra = scenario("safety-alg", ScenarioKind::safety);
  safety_algebra.algebra = algebra::gao_rexford_guideline_a();
  Scenario emulation_spp = scenario("emu-spp", ScenarioKind::emulation);
  emulation_spp.spp = good;
  Scenario emulation_gpv = scenario("emu-gpv", ScenarioKind::emulation);
  emulation_gpv.algebra = algebra::gao_rexford_guideline_a();
  topology::AsHierarchyParams params;
  params.depth = 3;
  params.seed = 1;
  emulation_gpv.topology = std::make_shared<const topology::Topology>(
      topology::generate_as_hierarchy(params, topology::LabelScheme::business));
  Scenario simulation = scenario("sim", ScenarioKind::simulation);
  simulation.spp = bad;

  CampaignRunner plain;
  const CampaignReport report = plain.run_scenarios(
      {safety_spp, safety_algebra, emulation_spp, emulation_gpv, simulation});
  EXPECT_EQ(report.results[0].content_id, "3ec2287ed3604d3b");
  EXPECT_EQ(report.results[1].content_id, "883696a88f38adc9");
  EXPECT_EQ(report.results[2].content_id, "fab8813863a4fd76");
  EXPECT_EQ(report.results[3].content_id, "6fe59ec7900a52f0");
  EXPECT_EQ(report.results[4].content_id, "7a70e4dbb8254be2");

  // The repair marker reshapes only repair-eligible (SPP safety) keys.
  CampaignOptions options;
  options.attempt_repair = true;
  CampaignRunner repairing(options);
  const CampaignReport repaired =
      repairing.run_scenarios({safety_spp, safety_algebra});
  EXPECT_EQ(repaired.results[0].content_id, "f4267317396c2402");
  EXPECT_EQ(repaired.results[1].content_id, "883696a88f38adc9");
}

// ----------------------------------------------------------- determinism --

TEST(CampaignRunner, ReportBytesIdenticalForAnyThreadCount) {
  // The acceptance property: same campaign seed => byte-identical default
  // JSON, whether solved serially or by a contended worker pool. Includes
  // emulation scenarios so their seed-dependence is covered too.
  const auto run_with_threads = [](int threads) {
    GadgetSweep sweep;
    sweep.include_emulations = true;
    std::vector<std::unique_ptr<ScenarioSource>> sources;
    sources.push_back(gadget_source(std::move(sweep)));
    RandomSppSweep random_sweep;
    random_sweep.count = 4;
    sources.push_back(random_spp_source(random_sweep));
    CampaignOptions options;
    options.seed = 7;
    options.threads = threads;
    CampaignRunner runner(options);
    return to_json(runner.run(sources));
  };
  const std::string serial = run_with_threads(1);
  EXPECT_EQ(serial, run_with_threads(2));
  EXPECT_EQ(serial, run_with_threads(5));
}

TEST(CampaignRunner, DifferentCampaignSeedsChangeRandomScenarios) {
  const auto run_with_seed = [](std::uint64_t seed) {
    std::vector<std::unique_ptr<ScenarioSource>> sources;
    RandomSppSweep sweep;
    sweep.count = 4;
    sources.push_back(random_spp_source(sweep));
    CampaignOptions options;
    options.seed = seed;
    CampaignRunner runner(options);
    return to_json(runner.run(sources));
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

// ------------------------------------------------------ dedup and caching --

TEST(CampaignRunner, DeduplicatesIdenticalContentWithinARun) {
  // The same gadget reached twice under different ids must be solved once,
  // with both results sharing the representative's outcome object.
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 3; ++i) {
    Scenario scenario;
    scenario.id = "dup/" + std::to_string(i);
    scenario.source = "dup";
    scenario.kind = ScenarioKind::safety;
    scenario.seed = derive_scenario_seed(1, scenario.id, i);
    scenario.spp =
        std::make_shared<const spp::SppInstance>(spp::bad_gadget());
    scenarios.push_back(std::move(scenario));
  }
  CampaignRunner runner;
  const CampaignReport report = runner.run_scenarios(std::move(scenarios));
  EXPECT_EQ(report.solved_count, 1u);
  EXPECT_EQ(report.deduplicated_count, 2u);
  EXPECT_EQ(report.cache_hit_count, 0u);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_FALSE(report.results[0].deduplicated);
  EXPECT_TRUE(report.results[1].deduplicated);
  EXPECT_TRUE(report.results[2].deduplicated);
  EXPECT_EQ(report.results[0].outcome.get(), report.results[1].outcome.get());
  EXPECT_EQ(report.results[0].outcome.get(), report.results[2].outcome.get());
  EXPECT_EQ(report.results[0].content_id, report.results[2].content_id);
  ASSERT_TRUE(report.results[2].outcome->safety.has_value());
  EXPECT_EQ(report.results[2].outcome->safety->verdict,
            SafetyVerdict::not_provably_safe);
}

TEST(CampaignRunner, SecondRunServedEntirelyFromCache) {
  CampaignRunner runner;
  const CampaignReport first = runner.run(quick_sources());
  EXPECT_GT(first.solved_count, 0u);
  EXPECT_EQ(first.cache_hit_count, 0u);

  const CampaignReport second = runner.run(quick_sources());
  EXPECT_EQ(second.solved_count, 0u);
  EXPECT_EQ(second.cache_hit_count,
            second.results.size() - second.deduplicated_count);
  // Cache provenance is timings-gated metadata, so a warm run renders the
  // exact same deterministic JSON as the cold run that filled the cache...
  EXPECT_EQ(to_json(first), to_json(second));
  JsonOptions timed;
  timed.include_timings = true;
  EXPECT_NE(to_json(second, timed).find("\"cache_hit\": true"),
            std::string::npos);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].content_id, second.results[i].content_id);
    if (!first.results[i].deduplicated) {
      // ...and the outcome objects themselves are shared, not re-solved.
      EXPECT_EQ(first.results[i].outcome.get(),
                second.results[i].outcome.get());
    }
  }
}

TEST(Cache, OutcomesRoundTripThroughSerialization) {
  // Every outcome shape the campaign produces (safety with cores and
  // models, emulations with series/routes, repair summaries, errors) must
  // survive the disk format byte-for-byte at the JSON level.
  GadgetSweep sweep;
  sweep.include_emulations = true;
  std::vector<std::unique_ptr<ScenarioSource>> sources;
  sources.push_back(gadget_source(std::move(sweep)));
  sources.push_back(standard_policy_source());
  CampaignOptions options;
  options.attempt_repair = true;
  CampaignRunner runner(options);
  CampaignReport report = runner.run(sources);
  JsonOptions timed;
  timed.include_timings = true;
  const std::string plain_before = to_json(report);
  const std::string timed_before = to_json(report, timed);

  std::size_t round_tripped = 0;
  for (ScenarioResult& result : report.results) {
    if (result.outcome == nullptr) continue;
    const auto restored =
        deserialize_outcome(serialize_outcome(*result.outcome));
    ASSERT_NE(restored, nullptr) << result.id;
    result.outcome = restored;
    ++round_tripped;
  }
  EXPECT_GT(round_tripped, 0u);

  // Deterministic AND timing renderings agree: the format loses nothing
  // (wall-clock fields included, so warm table renderings stay faithful).
  EXPECT_EQ(plain_before, to_json(report));
  EXPECT_EQ(timed_before, to_json(report, timed));
}

TEST(Cache, MalformedRecordsAreRejectedNotFatal) {
  EXPECT_EQ(deserialize_outcome(""), nullptr);
  EXPECT_EQ(deserialize_outcome("not a record"), nullptr);
  EXPECT_EQ(deserialize_outcome("fsr-outcome v99\nkind safety\n"), nullptr);
  // A truncated but well-headed record is rejected as a whole.
  const ScenarioOutcome outcome;
  const std::string full = serialize_outcome(outcome);
  EXPECT_NE(deserialize_outcome(full), nullptr);
  EXPECT_EQ(deserialize_outcome(full.substr(0, full.size() / 2)), nullptr);
}

TEST(Cache, DiskBackedCachePersistsAcrossRunners) {
  const std::string dir =
      testing::TempDir() + "fsr_cache_persist_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  CampaignOptions options;
  options.cache_dir = dir;
  std::string cold_json;
  {
    CampaignRunner cold(options);
    const CampaignReport report = cold.run(quick_sources());
    EXPECT_GT(report.solved_count, 0u);
    cold_json = to_json(report);
  }
  EXPECT_FALSE(std::filesystem::is_empty(dir));

  // A fresh process (modelled by a fresh runner) reloads every outcome:
  // nothing re-solves and the deterministic JSON is byte-identical.
  CampaignRunner warm(options);
  const CampaignReport report = warm.run(quick_sources());
  EXPECT_EQ(report.solved_count, 0u);
  EXPECT_GT(report.cache_hit_count, 0u);
  EXPECT_EQ(cold_json, to_json(report));
  std::filesystem::remove_all(dir);
}

TEST(Cache, CorruptedDiskEntriesDegradeToMisses) {
  const std::string dir =
      testing::TempDir() + "fsr_cache_corrupt_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  CampaignOptions options;
  options.cache_dir = dir;
  {
    CampaignRunner cold(options);
    (void)cold.run(quick_sources());
  }
  // Vandalise every stored record; the reload must shrug, not crash.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "fsr-outcome v1\ngarbage";
  }
  CampaignRunner warm(options);
  const CampaignReport report = warm.run(quick_sources());
  EXPECT_EQ(report.cache_hit_count, 0u);
  EXPECT_GT(report.solved_count, 0u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignRunner, CacheCanBeDisabled) {
  CampaignOptions options;
  options.use_cache = false;
  CampaignRunner runner(options);
  (void)runner.run(quick_sources());
  const CampaignReport second = runner.run(quick_sources());
  EXPECT_EQ(second.cache_hit_count, 0u);
  EXPECT_GT(second.solved_count, 0u);
  EXPECT_EQ(runner.cache().size(), 0u);
}

// ----------------------------------------------------------------- repair --

TEST(CampaignRunner, RepairReportBytesIdenticalForAnyThreadCount) {
  const auto run_with_threads = [](int threads) {
    std::vector<std::unique_ptr<ScenarioSource>> sources;
    RepairTargetSweep sweep;
    sweep.bad_chain_lengths = {2};
    sweep.random_count = 3;
    sources.push_back(repair_target_source(sweep));
    CampaignOptions options;
    options.seed = 11;
    options.threads = threads;
    options.attempt_repair = true;
    CampaignRunner runner(options);
    return to_json(runner.run(sources));
  };
  const std::string serial = run_with_threads(1);
  EXPECT_EQ(serial, run_with_threads(4));
  EXPECT_NE(serial.find("\"repair_summary\""), std::string::npos);
  EXPECT_NE(serial.find("\"repair\": {\"solver_repaired\": true"),
            std::string::npos);
}

TEST(CampaignRunner, RepairAggregatesAndHistogram) {
  std::vector<std::unique_ptr<ScenarioSource>> sources;
  RepairTargetSweep sweep;
  sweep.bad_chain_lengths = {2};
  sweep.random_count = 0;
  sources.push_back(repair_target_source(sweep));
  CampaignOptions options;
  options.attempt_repair = true;
  CampaignRunner runner(options);
  const CampaignReport report = runner.run(sources);

  const SourceSummary totals = report.totals();
  // bad, disagree, ibgp-figure3, bad-chain-2: all unsafe, all repairable.
  EXPECT_EQ(totals.repairs_attempted, 4u);
  EXPECT_EQ(totals.repaired, 4u);
  EXPECT_EQ(totals.repair_verified, 4u);
  const auto histogram = report.repair_edit_size_histogram();
  ASSERT_EQ(histogram.size(), 2u);  // every best fix is a single edit
  EXPECT_EQ(histogram[1], 4u);

  const std::string table = render_table(report);
  EXPECT_NE(table.find("repaired/attempted"), std::string::npos);
  EXPECT_NE(table.find("repair edit-size histogram"), std::string::npos);
}

TEST(CampaignRunner, RepairOffLeavesReportUnchanged) {
  std::vector<std::unique_ptr<ScenarioSource>> sources;
  sources.push_back(gadget_source());
  CampaignRunner runner;
  const CampaignReport report = runner.run(sources);
  EXPECT_EQ(report.totals().repairs_attempted, 0u);
  const std::string json = to_json(report);
  EXPECT_EQ(json.find("repair"), std::string::npos);
  EXPECT_TRUE(report.repair_edit_size_histogram().empty());
}

TEST(Identity, RepairOptionPartKeysEveryShapingField) {
  // The disk cache outlives the process: a warm run under a different
  // oracle, beam width, or budget must miss, not serve stale verdicts.
  api::RepairRequest request;
  request.spp = std::make_shared<const spp::SppInstance>(spp::bad_gadget());
  request.seed = 1;
  const std::string base = api::identity(request, {}).options;
  const auto part = [&request](auto mutate) {
    api::ServiceOptions options;
    mutate(options.repair);
    return api::identity(request, options).options;
  };
  using Options = repair::RepairOptions;
  EXPECT_NE(part([](Options& o) { o.max_edits = 3; }), base);
  EXPECT_NE(part([](Options& o) { o.beam_width = 8; }), base);
  EXPECT_NE(part([](Options& o) { o.max_checks = 100; }), base);
  EXPECT_NE(part([](Options& o) { o.use_incremental_oracle = false; }), base);
  EXPECT_NE(part([](Options& o) { o.allow_relax = false; }), base);
  EXPECT_NE(part([](Options& o) {
              o.ground_truth = groundtruth::Mode::enumerate;
            }),
            base);
  EXPECT_NE(part([](Options& o) { o.ground_truth_max_states = 7; }), base);
  EXPECT_NE(part([](Options& o) { o.ground_truth_max_conflicts = 7; }), base);
  EXPECT_NE(part([](Options& o) { o.ground_truth_max_solutions = 7; }), base);
  EXPECT_NE(part([](Options& o) { o.spvp_max_activations = 7; }), base);
  EXPECT_NE(part([](Options& o) { o.spvp_trials = 7; }), base);
  // Both SMT solver strategies report identically (a tested property), so
  // that ablation shares cache entries.
  EXPECT_EQ(part([](Options& o) { o.use_incremental = false; }), base);

  // The seed belongs to the request's head, not its option part: the
  // campaign's repair marker stays seed-free.
  api::RepairRequest reseeded = request;
  reseeded.seed = 2;
  EXPECT_EQ(api::identity(reseeded, {}).options, base);
  EXPECT_NE(identity_text(reseeded), identity_text(request));
}

TEST(Identity, SimOptionPartKeysEveryShapingField) {
  // The PR-9 regression: simulation outcomes depend on the whole sim
  // configuration, not just the per-run seed, so every axis that can
  // change the run must land in the key — records written under one config
  // must never satisfy a lookup under another.
  api::SimulateRequest request;
  request.spp = std::make_shared<const spp::SppInstance>(spp::bad_gadget());
  request.seed = 7;
  const std::string base = identity_text(request);
  const auto with = [&request](auto mutate) {
    api::ServiceOptions options;
    mutate(options.sim);
    return identity_text(request, options);
  };

  // Scenario, suppression, and a step-budget override travel on the
  // request (the campaign copies its sim regime into every request).
  api::SimulateRequest churn = request;
  churn.scenario = "link-flap";
  EXPECT_NE(identity_text(churn), base);
  api::SimulateRequest suppressed = request;
  suppressed.suppression = "split-horizon";
  EXPECT_NE(identity_text(suppressed), base);
  api::SimulateRequest capped = request;
  capped.max_steps = 64;
  EXPECT_NE(identity_text(capped), base);
  api::SimulateRequest reseeded = request;
  reseeded.seed = 8;
  EXPECT_NE(identity_text(reseeded), base);

  using Options = sim::SimOptions;
  EXPECT_NE(with([](Options& o) { o.mrai_ticks = 5; }), base);
  EXPECT_NE(with([](Options& o) { o.max_link_delay = 9; }), base);
  EXPECT_NE(with([](Options& o) { o.max_steps = 64; }), base);

  // The detector axes are deliberately NOT keyed: the differential suite
  // proves both detectors byte-identical (and the hash mask is verified
  // away), so their records are interchangeable by construction.
  EXPECT_EQ(with([](Options& o) { o.detector = "canonical"; }), base);
  EXPECT_EQ(with([](Options& o) { o.detector_hash_mask = 0; }), base);

  // Non-simulation requests ignore the sim config entirely.
  api::AnalyzeSafetyRequest safety;
  safety.spp = request.spp;
  api::ServiceOptions batched;
  batched.sim.mrai_ticks = 5;
  EXPECT_EQ(identity_text(safety, batched), identity_text(safety));
}

TEST(CampaignRunner, WarmCacheNeverServesADifferentSimConfig) {
  // Disk-backed cross-config regression for the same bug: a cache filled
  // under one sim configuration must be useless to a campaign running
  // another — and fully warm again for the configuration that wrote it.
  const std::string dir = testing::TempDir() + "fsr_cache_simcfg_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  GadgetSweep sweep;
  sweep.include_simulations = true;
  const auto sim_sources = [&sweep] {
    std::vector<std::unique_ptr<ScenarioSource>> sources;
    sources.push_back(gadget_source(sweep));
    return sources;
  };

  CampaignOptions cold_options;
  cold_options.cache_dir = dir;
  {
    CampaignRunner cold(cold_options);
    const CampaignReport report = cold.run(sim_sources());
    EXPECT_GT(report.totals().sim_runs, 0u);
  }

  CampaignOptions flap_options = cold_options;
  flap_options.sim.scenario = "link-flap";
  flap_options.sim.suppression = "poisoned-reverse";
  CampaignRunner warm_other(flap_options);
  const CampaignReport other = warm_other.run(sim_sources());
  std::size_t sims = 0;
  for (const ScenarioResult& result : other.results) {
    if (result.kind != ScenarioKind::simulation) continue;
    ++sims;
    EXPECT_FALSE(result.cache_hit) << result.id;
    ASSERT_TRUE(result.outcome->sim.has_value()) << result.id;
    // The outcome really ran under the new config, not the cached one.
    EXPECT_EQ(result.outcome->sim->scenario, "link-flap") << result.id;
    EXPECT_EQ(result.outcome->sim->suppression, "poisoned-reverse")
        << result.id;
  }
  EXPECT_GT(sims, 0u);

  // Same config as the cold run => every simulation is a warm hit again.
  CampaignRunner warm_same(cold_options);
  const CampaignReport same = warm_same.run(sim_sources());
  for (const ScenarioResult& result : same.results) {
    if (result.kind != ScenarioKind::simulation || result.deduplicated) {
      continue;
    }
    EXPECT_TRUE(result.cache_hit) << result.id;
  }
  std::filesystem::remove_all(dir);
}

TEST(ScenarioSource, SppFromTopologyExtractsSimulatableInstances) {
  // The campaign's --simulate bridge for annotated topologies: the
  // extracted instance must give the destination's neighbours real routes
  // (otherwise nothing ever originates and every simulation is a trivial
  // zero-message convergence) and fold only policy-permitted paths.
  topology::AsHierarchyParams params;
  params.depth = 5;
  params.seed = 1;
  const topology::Topology topo =
      topology::generate_as_hierarchy(params, topology::LabelScheme::business);
  const spp::SppInstance instance = spp_from_topology(
      "x", topo, *algebra::gao_rexford_guideline_a(), params.depth + 4, 16, 3);
  EXPECT_EQ(instance.destination(), topo.destination);
  EXPECT_GT(instance.permitted_path_count(), 0u);
  bool destination_reachable = false;
  for (const auto& [u, v] : instance.edges()) {
    const std::string& neighbour = u == topo.destination   ? v
                                   : v == topo.destination ? u
                                                           : std::string();
    if (neighbour.empty()) continue;
    if (!instance.permitted(neighbour).empty()) destination_reachable = true;
  }
  EXPECT_TRUE(destination_reachable);

  // And the simulator actually has something to do on it.
  sim::SimOptions options;
  options.seed = 3;
  const sim::SimResult run = sim::simulate(instance, options);
  EXPECT_TRUE(run.converged || run.oscillating);
  EXPECT_GT(run.messages, 0u);
}

TEST(ScenarioSource, RepairTargetsSourceIsRegistered) {
  const auto& names = builtin_source_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "repair-targets"),
            names.end());
  const auto source = make_builtin_source("repair-targets", false);
  const std::vector<Scenario> scenarios = source->generate(1, 0);
  EXPECT_GE(scenarios.size(), 7u);
  for (const Scenario& scenario : scenarios) {
    EXPECT_EQ(scenario.kind, ScenarioKind::safety);
    EXPECT_NE(scenario.spp, nullptr);
  }
}

// ------------------------------------------------------------- robustness --

TEST(CampaignRunner, FailingScenarioRecordsErrorWithoutAborting) {
  // An SPP instance with no permitted paths fails translation; the
  // campaign must record the error, keep going, and keep the failure out
  // of the cache.
  std::vector<Scenario> scenarios;
  Scenario broken;
  broken.id = "broken/empty";
  broken.source = "broken";
  broken.kind = ScenarioKind::safety;
  broken.spp = std::make_shared<const spp::SppInstance>(
      spp::SppInstance("pathless"));
  scenarios.push_back(broken);
  Scenario good;
  good.id = "ok/good";
  good.source = "ok";
  good.kind = ScenarioKind::safety;
  good.spp = std::make_shared<const spp::SppInstance>(spp::good_gadget());
  scenarios.push_back(good);

  CampaignRunner runner;
  const CampaignReport report = runner.run_scenarios(std::move(scenarios));
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_FALSE(report.results[0].outcome->error.empty());
  EXPECT_TRUE(report.results[1].outcome->error.empty());
  EXPECT_EQ(runner.cache().size(), 1u);  // only the good outcome cached
  EXPECT_NE(to_json(report).find("\"verdict\": \"error\""), std::string::npos);
}

TEST(CampaignRunner, RejectsMalformedScenarioShapes) {
  // Shape errors are programming mistakes: they fail fast in the
  // sequential scheduling phase, never inside a worker.
  const auto run_one = [](Scenario scenario) {
    scenario.id = "shape";
    std::vector<Scenario> scenarios;
    scenarios.push_back(std::move(scenario));
    CampaignRunner runner;
    (void)runner.run_scenarios(std::move(scenarios));
  };
  Scenario emulation_without_topology;
  emulation_without_topology.kind = ScenarioKind::emulation;
  emulation_without_topology.algebra = algebra::gao_rexford_guideline_a();
  EXPECT_THROW(run_one(emulation_without_topology), InvalidArgument);

  Scenario safety_with_both;
  safety_with_both.kind = ScenarioKind::safety;
  safety_with_both.algebra = algebra::gao_rexford_guideline_a();
  safety_with_both.spp =
      std::make_shared<const spp::SppInstance>(spp::good_gadget());
  EXPECT_THROW(run_one(safety_with_both), InvalidArgument);
}

TEST(CampaignRunner, RejectsNonPositiveThreadCount) {
  CampaignOptions options;
  options.threads = 0;
  EXPECT_THROW(CampaignRunner{options}, InvalidArgument);
}

// -------------------------------------------------------------- reporting --

TEST(CampaignReport, AggregatesVerdictsPerSource) {
  CampaignRunner runner;
  const CampaignReport report = runner.run(quick_sources());
  const auto per_source = report.per_source();
  ASSERT_EQ(per_source.size(), 3u);
  EXPECT_EQ(per_source[0].first, "gadgets");
  // good, fixed figure-3 and the chains are safe; bad, disagree and the
  // broken figure-3 are not provably safe.
  EXPECT_EQ(per_source[0].second.safe, 5u);
  EXPECT_EQ(per_source[0].second.not_provably_safe, 3u);
  const SourceSummary totals = report.totals();
  EXPECT_EQ(totals.scenarios, report.results.size());
  EXPECT_EQ(totals.safe + totals.not_provably_safe + totals.converged +
                totals.diverged,
            report.results.size());
  EXPECT_FALSE(report.core_frequencies().empty());
}

TEST(CampaignReport, TimingsAreOptInAndTableRenders) {
  CampaignRunner runner;
  const CampaignReport report = runner.run(quick_sources());
  const std::string plain = to_json(report);
  EXPECT_EQ(plain.find("wall_ms"), std::string::npos);
  EXPECT_EQ(plain.find("timings"), std::string::npos);
  JsonOptions options;
  options.include_timings = true;
  const std::string timed = to_json(report, options);
  EXPECT_NE(timed.find("\"timings\""), std::string::npos);
  EXPECT_NE(timed.find("wall_ms"), std::string::npos);

  const std::string table = render_table(report);
  EXPECT_NE(table.find("FSR campaign report"), std::string::npos);
  EXPECT_NE(table.find("gadgets"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

// -------------------------------------------------- size-capped LRU sweep --

namespace {

/// An outcome whose serialized record is at least `bytes` long (padding
/// rides in the narrative, which round-trips verbatim).
std::shared_ptr<const ScenarioOutcome> padded_outcome(std::size_t bytes) {
  auto outcome = std::make_shared<ScenarioOutcome>();
  SafetyReport safety;
  safety.verdict = SafetyVerdict::safe;
  safety.narrative = std::string(bytes, 'x');
  outcome->safety = std::move(safety);
  return outcome;
}

std::string eviction_dir(const char* tag) {
  const std::string dir = testing::TempDir() + "fsr_cache_evict_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::size_t outcome_files(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".outcome") ++count;
  }
  return count;
}

}  // namespace

TEST(Cache, SizeCapEvictsOldestRecordsOnOverflow) {
  const std::string dir = eviction_dir("cap");
  const std::uint64_t cap = 4000;
  {
    ResultCache cache(dir, cap);
    for (int i = 0; i < 8; ++i) {
      cache.insert("key-" + std::to_string(i), padded_outcome(1000));
    }
    // Every insert swept: the directory never exceeds the cap, the oldest
    // records are the ones that went, and the in-memory entries all
    // survive (eviction sheds disk history, not this run's answers).
    EXPECT_LE(cache.disk_bytes(), cap);
    EXPECT_GT(cache.evicted_files(), 0u);
    EXPECT_EQ(cache.size(), 8u);
    for (int i = 0; i < 8; ++i) {
      EXPECT_NE(cache.find("key-" + std::to_string(i)), nullptr) << i;
    }
  }
  EXPECT_LT(outcome_files(dir), 8u);

  // A fresh cache reloads only the surviving (most recent) records; the
  // newest insertion is always among them.
  ResultCache reloaded(dir, cap);
  EXPECT_EQ(reloaded.size(), outcome_files(dir));
  EXPECT_NE(reloaded.find("key-7"), nullptr);
  EXPECT_EQ(reloaded.find("key-0"), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(Cache, FindHitsRefreshRecencySoHotRecordsSurviveTheSweep) {
  const std::string dir = eviction_dir("touch");
  // Measure one record's on-disk size so the cap holds exactly two.
  std::uint64_t record_bytes = 0;
  {
    const std::string probe_dir = eviction_dir("touch_probe");
    ResultCache probe(probe_dir);
    probe.insert("probe", padded_outcome(1000));
    record_bytes = probe.disk_bytes();
    std::filesystem::remove_all(probe_dir);
  }
  ASSERT_GT(record_bytes, 0u);
  ResultCache cache(dir, 2 * record_bytes + record_bytes / 2);
  cache.insert("hot", padded_outcome(1000));
  cache.insert("cold", padded_outcome(1000));
  // Touch the older record: it becomes the most recently ACCESSED even
  // though "cold" was written later.
  EXPECT_NE(cache.find("hot"), nullptr);
  // Overflow: the sweep must shed "cold" (oldest access), not "hot".
  cache.insert("new", padded_outcome(1000));
  ResultCache reloaded(dir);
  EXPECT_NE(reloaded.find("hot"), nullptr);
  EXPECT_NE(reloaded.find("new"), nullptr);
  EXPECT_EQ(reloaded.find("cold"), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(Cache, StartupLoadAppliesTheCapToAnOverfullDirectory) {
  const std::string dir = eviction_dir("startup");
  {
    ResultCache unbounded(dir);  // fill without a cap
    for (int i = 0; i < 6; ++i) {
      unbounded.insert("key-" + std::to_string(i), padded_outcome(1000));
    }
  }
  EXPECT_EQ(outcome_files(dir), 6u);
  ResultCache capped(dir, 3000);
  EXPECT_LE(capped.disk_bytes(), 3000u);
  EXPECT_GT(capped.evicted_files(), 0u);
  EXPECT_LT(outcome_files(dir), 6u);
  std::filesystem::remove_all(dir);
}

TEST(Cache, SingleOversizedRecordSurvivesAlone) {
  const std::string dir = eviction_dir("oversize");
  ResultCache cache(dir, 100);
  cache.insert("big", padded_outcome(5000));
  // Deleting the only record would leave a cache that serves nothing.
  EXPECT_EQ(outcome_files(dir), 1u);
  EXPECT_EQ(cache.evicted_files(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignRunner, CacheMaxBytesFlowsThroughCampaignOptions) {
  const std::string dir = eviction_dir("runner");
  CampaignOptions options;
  options.cache_dir = dir;
  options.cache_max_bytes = 8000;
  CampaignRunner runner(options);
  const CampaignReport report = runner.run(quick_sources());
  EXPECT_GT(report.solved_count, 0u);
  EXPECT_LE(runner.cache().disk_bytes(), options.cache_max_bytes);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fsr::campaign
