#include "groundtruth/engine.h"

#include <algorithm>
#include <cstring>

#include "groundtruth/stable_sat.h"

namespace fsr::groundtruth {
namespace {

class EnumerateEngine final : public GroundTruthEngine {
 public:
  explicit EnumerateEngine(Options options) : options_(options) {}

  Mode mode() const noexcept override { return Mode::enumerate; }

  Result analyze(const spp::SppInstance& instance) const override {
    // O(nodes) pre-check, as the seed enumerator did: when the full state
    // space cannot fit the budget the scan could never be complete, and a
    // partial scan almost never surfaces a witness (stable states are not
    // front-loaded in counter order) — so reject instantly instead of
    // burning max_states stability checks per call. Callers wanting the
    // raw capped scan (e.g. bench lower bounds) use
    // spp::enumerate_stable_assignments_budgeted directly.
    std::uint64_t states = 1;
    for (const std::string& node : instance.nodes()) {
      const std::uint64_t node_options = instance.permitted(node).size() + 1;
      if (states > options_.max_states / node_options) {
        Result capped;  // undecided, zero states scanned
        capped.budget_stop = BudgetStop::states;
        return capped;
      }
      states *= node_options;
    }
    spp::BudgetedEnumeration scan = spp::enumerate_stable_assignments_budgeted(
        instance, options_.max_states, options_.max_solutions);
    Result result;
    result.states_scanned = scan.states_scanned;
    result.count = scan.assignments.size();
    // A partial scan that found witnesses still decides existence; one
    // that found nothing decides nothing.
    result.decided = scan.complete || !scan.assignments.empty();
    result.has_stable = !scan.assignments.empty();
    result.count_exact = scan.complete;
    switch (scan.stopped_by) {
      case spp::EnumerationStop::completed:
        break;
      case spp::EnumerationStop::state_budget:
        result.budget_stop = BudgetStop::states;
        break;
      case spp::EnumerationStop::solution_budget:
        result.budget_stop = BudgetStop::solutions;
        break;
    }
    if (!scan.assignments.empty()) {
      result.witness = *std::min_element(scan.assignments.begin(),
                                         scan.assignments.end());
    }
    return result;
  }

 private:
  Options options_;
};

class SatSearchEngine final : public GroundTruthEngine {
 public:
  explicit SatSearchEngine(Options options) : options_(options) {}

  Mode mode() const noexcept override { return Mode::sat_search; }

  Result analyze(const spp::SppInstance& instance) const override {
    const StableSearchResult search = solve_stable_assignments(
        instance, options_.max_solutions, options_.max_conflicts);
    Result result;
    result.decided = search.decided;
    result.has_stable = search.has_stable;
    result.count = search.count;
    result.count_exact = search.count_exact;
    result.budget_stop = search.budget_stop;
    if (!search.assignments.empty()) {
      result.witness = search.assignments.front();  // canonical order
    }
    result.conflicts = search.stats.conflicts;
    result.decisions = search.stats.decisions;
    result.propagations = search.stats.propagations;
    return result;
  }

 private:
  Options options_;
};

}  // namespace

const char* to_string(Mode mode) noexcept {
  switch (mode) {
    case Mode::enumerate:
      return "enumerate";
    case Mode::sat_search:
      return "sat-search";
  }
  return "sat-search";
}

std::string options_key(Mode mode, const Options& options) {
  return std::string("mode=") + to_string(mode) +
         ";states=" + std::to_string(options.max_states) +
         ";solutions=" + std::to_string(options.max_solutions) +
         ";conflicts=" + std::to_string(options.max_conflicts);
}

std::optional<Mode> parse_mode(const std::string& text) {
  if (text == "enumerate") return Mode::enumerate;
  if (text == "sat-search") return Mode::sat_search;
  return std::nullopt;
}

bool consume_mode_flag(int argc, char** argv, int& i,
                       std::optional<Mode>& mode) {
  constexpr const char* k_flag = "--ground-truth";
  const char* arg = argv[i];
  if (std::strncmp(arg, k_flag, std::strlen(k_flag)) != 0) return false;
  const char* rest = arg + std::strlen(k_flag);
  if (*rest == '=') {
    mode = parse_mode(rest + 1);
    return true;
  }
  if (*rest != '\0') return false;  // e.g. --ground-truthy
  if (i + 1 >= argc) {
    mode = std::nullopt;  // flag without a value
    return true;
  }
  mode = parse_mode(argv[++i]);
  return true;
}

std::unique_ptr<GroundTruthEngine> make_engine(Mode mode, Options options) {
  if (mode == Mode::enumerate) {
    return std::make_unique<EnumerateEngine>(options);
  }
  return std::make_unique<SatSearchEngine>(options);
}

}  // namespace fsr::groundtruth
