// Ground-truth oracles for SPP stability — the toolkit's exact answer to
// "does this configuration have a stable path assignment?", used to
// cross-validate solver verdicts (repair engine, agreement tests,
// campaigns).
//
// Two interchangeable backends:
//
//   * enumerate  — the classic brute-force scan over every (node -> path)
//                  combination. Exact on gadget-sized instances; beyond
//                  `max_states` combinations it gives up (Result.decided
//                  false) — the seed toolkit's behaviour.
//   * sat-search — conflict-driven search over the CNF encoding of the
//                  stability condition (stable_sat.h): unit propagation
//                  from ranking structure, learned conflict clauses,
//                  activity branching. Decides Rocketfuel-sized instances
//                  exactly and enumerates solutions up to a bound; the
//                  default oracle everywhere.
//
// Both backends agree wherever enumeration is exact (a property the test
// suite sweeps across the gadget library and seeded random instances), and
// both are deterministic in the instance alone — results feed byte-stable
// campaign JSON.
#ifndef FSR_GROUNDTRUTH_ENGINE_H
#define FSR_GROUNDTRUTH_ENGINE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "groundtruth/stable_sat.h"
#include "spp/spp.h"

namespace fsr::groundtruth {

enum class Mode { enumerate, sat_search };

const char* to_string(Mode mode) noexcept;
/// Parses "enumerate" / "sat-search"; nullopt for anything else.
std::optional<Mode> parse_mode(const std::string& text);

/// Shared CLI handling for the `--ground-truth MODE` flag (also accepts
/// `--ground-truth=MODE`, the spelling the docs use). Returns false when
/// argv[i] is not this flag. On a match, consumes the value (advancing
/// `i` for the two-token form) and stores the parsed mode into `mode` —
/// or nullopt when the value is missing/unknown, which callers report as
/// a usage error.
bool consume_mode_flag(int argc, char** argv, int& i,
                       std::optional<Mode>& mode);

struct Options {
  /// enumerate backend: give up beyond this many candidate states.
  std::uint64_t max_states = std::uint64_t{1} << 22;
  /// Stop enumerating stable assignments at this many (both backends);
  /// existence verdicts are unaffected.
  std::size_t max_solutions = 64;
  /// sat-search backend: conflict budget before answering "undecided"
  /// (0 = unbounded). The default decides every workload in the repo.
  std::uint64_t max_conflicts = std::uint64_t{1} << 20;
};

/// Key text of the backend and every Options field that shapes a Result.
std::string options_key(Mode mode, const Options& options);

struct Result {
  /// True when the backend established the existence verdict. False means
  /// the budget ran out (enumerate: state cap; sat-search: conflict cap)
  /// and `has_stable` is meaningless.
  bool decided = false;
  bool has_stable = false;
  /// Distinct stable assignments found (<= max_solutions); exact iff
  /// `count_exact`, otherwise a floor.
  std::size_t count = 0;
  bool count_exact = false;
  /// Which budget (if any) cut the analysis short: `states` (enumerate's
  /// state cap), `conflicts` (sat-search's conflict cap), or `solutions`
  /// (the enumeration bound — verdict exact, count a floor).
  BudgetStop budget_stop = BudgetStop::none;
  /// A stable assignment when one was found, in canonical order (the
  /// lexicographically least of those enumerated).
  std::optional<spp::Assignment> witness;

  // Backend effort, for benches and reports.
  std::uint64_t states_scanned = 0;  // enumerate
  std::uint64_t conflicts = 0;       // sat-search
  std::uint64_t decisions = 0;       // sat-search
  std::uint64_t propagations = 0;    // sat-search
};

/// Thread-compatibility: engines hold only immutable options; analyze()
/// keeps all mutable state on its own stack, so one engine MAY be shared
/// by concurrent callers (the same contract as SafetyAnalyzer).
class GroundTruthEngine {
 public:
  virtual ~GroundTruthEngine() = default;
  virtual Mode mode() const noexcept = 0;
  virtual Result analyze(const spp::SppInstance& instance) const = 0;
};

std::unique_ptr<GroundTruthEngine> make_engine(Mode mode,
                                               Options options = {});

}  // namespace fsr::groundtruth

#endif  // FSR_GROUNDTRUTH_ENGINE_H
