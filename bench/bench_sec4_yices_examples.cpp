// Section IV-C — the three worked solver examples, run through the
// textual Yices-style pipeline exactly as the paper presents them: each
// emitted script is replayed through smt::YicesFrontend, whose transcript
// is printed and must agree with the analyzer's own verdict (exit 1 if
// not).
//
//   1. shortest hop-count          -> sat
//   2. Gao-Rexford guideline A:
//        strict monotonicity       -> unsat (core: a self-loop entry)
//        plain monotonicity        -> sat with C=1, P=2, R=2
//   3. the Figure-3 iBGP instance  -> 18 constraints, unsat, minimal core
//      of 6 constraints touching only the route reflectors a, b, c
#include <cstdio>

#include "algebra/additive_algebra.h"
#include "algebra/standard_policies.h"
#include "bench_util.h"
#include "fsr/safety_analyzer.h"
#include "smt/yices_frontend.h"
#include "spp/gadgets.h"
#include "spp/translate.h"
#include "util/strings.h"

namespace {

bool replays_agree = true;

void show_check(const fsr::MonotonicityReport& report) {
  std::printf("-- emitted script --\n%s", report.yices_script.c_str());
  fsr::smt::YicesFrontend frontend;
  const fsr::smt::ScriptResult replay =
      frontend.run_script(report.yices_script);
  std::printf("-- solver (script replay) --\n");
  for (const std::string& line : replay.transcript) {
    std::printf("%s\n", line.c_str());
  }
  if ((replay.single_check().status == fsr::smt::Status::sat) !=
      report.holds) {
    std::printf("REPLAY DISAGREES with the analyzer verdict\n");
    replays_agree = false;
  }
  if (!report.holds) {
    std::printf("core mapped to policy (%zu constraints):\n",
                report.unsat_core.size());
    for (const auto& prov : report.unsat_core) {
      std::printf("  %s   [%s]\n", prov.constraint.c_str(),
                  prov.description.c_str());
    }
  }
  std::printf("solve time: %s ms\n",
              fsr::util::format_fixed(report.solve_time_ms, 3).c_str());
}

}  // namespace

int main() {
  using fsr::bench::print_banner;
  const fsr::SafetyAnalyzer analyzer;

  print_banner("Example 1: shortest hop-count (strict monotonicity)");
  show_check(analyzer.check_monotonicity(*fsr::algebra::shortest_hop_count(),
                                         fsr::MonotonicityMode::strict));

  print_banner("Example 2a: Gao-Rexford guideline A (strict monotonicity)");
  const auto gr = fsr::algebra::gao_rexford_guideline_a();
  show_check(
      analyzer.check_monotonicity(*gr, fsr::MonotonicityMode::strict));

  print_banner("Example 2b: Gao-Rexford guideline A (plain monotonicity)");
  show_check(analyzer.check_monotonicity(*gr, fsr::MonotonicityMode::plain));

  print_banner("Example 3: Figure-3 iBGP instance (strict monotonicity)");
  const auto ibgp =
      fsr::spp::algebra_from_spp(fsr::spp::ibgp_figure3_gadget());
  const auto check =
      analyzer.check_monotonicity(*ibgp, fsr::MonotonicityMode::strict);
  std::printf("constraints: %zu rankings + %zu strict monotonicity = %zu\n",
              check.preference_constraint_count,
              check.monotonicity_constraint_count,
              check.preference_constraint_count +
                  check.monotonicity_constraint_count);
  show_check(check);

  print_banner("Example 3 (repaired): reflectors prefer their own clients");
  const auto fixed =
      fsr::spp::algebra_from_spp(fsr::spp::ibgp_figure3_fixed());
  const auto fixed_check =
      analyzer.check_monotonicity(*fixed, fsr::MonotonicityMode::strict);
  std::printf("verdict: %s\n", fixed_check.holds ? "sat (safe)" : "unsat");
  return replays_agree ? 0 : 1;
}
