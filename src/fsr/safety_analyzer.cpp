#include "fsr/safety_analyzer.h"

#include <chrono>

#include "fsr/constraint_encoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsr {

using encoding::Encoding;
using encoding::SymbolTable;
using encoding::encode;
using encoding::render_script;

double SafetyReport::total_solve_time_ms() const {
  double total = 0.0;
  for (const MonotonicityReport& check : checks) total += check.solve_time_ms;
  return total;
}

const std::vector<ConstraintProvenance>* SafetyReport::failing_core() const {
  if (checks.empty() || checks.back().holds) return nullptr;
  return &checks.back().unsat_core;
}

std::string SafetyAnalyzer::emit_yices_script(
    const algebra::SymbolicSpec& spec, MonotonicityMode mode) {
  const SymbolTable symbols(spec.signatures);
  const Encoding enc = encode(spec, mode, symbols);
  return render_script(spec, mode, symbols, enc);
}

namespace {

/// check_monotonicity over an already-derived spec and its symbol table.
MonotonicityReport check_spec(const algebra::SymbolicSpec& spec,
                              const SymbolTable& symbols,
                              MonotonicityMode mode) {
  const Encoding enc = encode(spec, mode, symbols);

  MonotonicityReport report;
  report.algebra_name = spec.algebra_name;
  report.mode = mode;
  report.yices_script = render_script(spec, mode, symbols, enc);
  for (const auto& prov : enc.provenance) {
    if (prov.kind == ConstraintProvenance::Kind::preference) {
      ++report.preference_constraint_count;
    } else {
      ++report.monotonicity_constraint_count;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  smt::Context ctx;
  encoding::load(symbols, enc, ctx);
  const smt::CheckResult check = ctx.check();
  const auto stop = std::chrono::steady_clock::now();
  report.solve_time_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();

  if (check.status == smt::Status::sat) {
    report.holds = true;
    for (const auto& [symbol, value] : check.model.values) {
      report.model.values[symbols.original(symbol)] = value;
    }
  } else {
    report.holds = false;
    for (const smt::AssertionId id : check.unsat_core) {
      const auto index = static_cast<std::size_t>(id);
      if (index < enc.provenance.size()) {
        report.unsat_core.push_back(enc.provenance[index]);
      }
    }
  }
  return report;
}

}  // namespace

MonotonicityReport SafetyAnalyzer::check_monotonicity(
    const algebra::RoutingAlgebra& algebra, MonotonicityMode mode) const {
  const algebra::SymbolicSpec spec = algebra.symbolic();
  return check_spec(spec, SymbolTable(spec.signatures), mode);
}

SafetyReport SafetyAnalyzer::analyze(
    const algebra::RoutingAlgebra& algebra) const {
  static obs::Counter& analyze_counter =
      obs::registry().counter("safety.analyses");
  analyze_counter.add(1);
  obs::Span span("safety.analyze");
  span.arg("algebra", algebra.name());
  SafetyReport report;
  const std::vector<const algebra::RoutingAlgebra*> factors =
      algebra.lexical_factors();

  // Each factor's spec and symbol table are derived once and shared by its
  // strict and plain checks.
  if (factors.empty()) {
    // Leaf algebra: strict check, then (on failure) the plain check that
    // tells the user whether a tie-breaking composition would rescue it.
    const algebra::SymbolicSpec spec = algebra.symbolic();
    const SymbolTable symbols(spec.signatures);
    MonotonicityReport strict =
        check_spec(spec, symbols, MonotonicityMode::strict);
    const bool strict_holds = strict.holds;
    report.checks.push_back(std::move(strict));
    if (strict_holds) {
      report.verdict = SafetyVerdict::safe;
      report.narrative = "Algebra '" + algebra.name() +
                         "' is strictly monotonic; by Theorem 4.1 "
                         "(Sobrinho) the path-vector protocol converges.";
      return report;
    }
    MonotonicityReport plain =
        check_spec(spec, symbols, MonotonicityMode::plain);
    const bool plain_holds = plain.holds;
    report.checks.push_back(std::move(plain));
    report.verdict = SafetyVerdict::not_provably_safe;
    report.narrative =
        plain_holds
            ? "Algebra '" + algebra.name() +
                  "' is monotonic but not strictly monotonic: not provably "
                  "safe on its own. Composing it (lexical product) with a "
                  "strictly monotonic tie-breaker such as shortest hop-count "
                  "yields a provably safe policy (Section IV-B)."
            : "Algebra '" + algebra.name() +
                  "' is not even monotonic; the unsat core identifies the "
                  "conflicting policy constraints.";
    return report;
  }

  // Lexical product: factors in significance order. Safe as soon as one
  // factor is strictly monotone with all earlier factors monotone.
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const algebra::RoutingAlgebra& factor = *factors[i];
    const algebra::SymbolicSpec spec = factor.symbolic();
    const SymbolTable symbols(spec.signatures);
    MonotonicityReport strict =
        check_spec(spec, symbols, MonotonicityMode::strict);
    const bool strict_holds = strict.holds;
    report.checks.push_back(std::move(strict));
    if (strict_holds) {
      report.verdict = SafetyVerdict::safe;
      report.narrative =
          "Lexical product '" + algebra.name() + "': factor '" +
          factor.name() +
          "' is strictly monotonic and every earlier factor is monotonic; "
          "the composition is strictly monotonic (Section IV-B), hence safe.";
      return report;
    }
    MonotonicityReport plain =
        check_spec(spec, symbols, MonotonicityMode::plain);
    const bool plain_holds = plain.holds;
    report.checks.push_back(std::move(plain));
    if (!plain_holds) {
      report.verdict = SafetyVerdict::not_provably_safe;
      report.narrative = "Lexical product '" + algebra.name() + "': factor '" +
                         factor.name() +
                         "' is not monotonic; the composition is not "
                         "provably safe.";
      return report;
    }
  }
  report.verdict = SafetyVerdict::not_provably_safe;
  report.narrative =
      "Lexical product '" + algebra.name() +
      "': every factor is monotonic but none is strictly monotonic; ties "
      "can persist, so the composition is not provably safe.";
  return report;
}

}  // namespace fsr
