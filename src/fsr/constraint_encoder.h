// The Section IV-B constraint encoding, shared by SafetyAnalyzer's checks
// and the IncrementalSafetySession the repair engine drives.
//
// Encoding order is part of the toolkit's contract: preferences first, then
// combined-extension (monotonicity) entries, then additive templates —
// assertion index i corresponds to provenance[i] in every consumer, which
// is how solver cores map back to policy constraints. Each constraint is
// built once as an smt::Term next to its textual line; the line goes into
// the emitted Yices script and the term straight to the solver (load()),
// so no consumer re-parses text the encoder has just printed.
#ifndef FSR_FSR_CONSTRAINT_ENCODER_H
#define FSR_FSR_CONSTRAINT_ENCODER_H

#include <map>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "fsr/safety_analyzer.h"
#include "smt/context.h"
#include "smt/term.h"

namespace fsr::encoding {

/// Signature names can contain characters that are not valid solver
/// symbols (SPP signatures look like "r(a-b-e-0)"), so the encoder works
/// over sanitized symbols and keeps a bidirectional mapping.
class SymbolTable {
 public:
  explicit SymbolTable(const std::vector<std::string>& names);

  /// Sanitized symbol of an original signature name; throws
  /// fsr::InvalidArgument for unknown names.
  const std::string& symbol(const std::string& name) const;

  const std::string& original(const std::string& symbol) const;

  const std::vector<std::string>& symbols() const noexcept { return symbols_; }

 private:
  std::map<std::string, std::string> symbol_to_name_;
  std::map<std::string, std::string> name_to_symbol_;
  std::vector<std::string> symbols_;
};

/// Structural identity of one encoded constraint over ORIGINAL signature
/// names; templates carry their rendered line in `lhs`. The repair engine
/// interns these shapes to diff candidate configurations against the base.
struct RelationShape {
  std::string rel;  // "<", "<=", "=", or "forall" for additive templates
  std::string lhs;
  std::string rhs;
};

/// The constraints of one encoding, in assertion order (the order defines
/// the AssertionId <-> provenance correspondence). provenance[i].constraint
/// is constraint i's line, e.g. "(< a b)" over sanitized symbols.
struct Encoding {
  std::vector<ConstraintProvenance> provenance;
  std::vector<smt::Term> terms;        // parallel: the line as a solver term
  std::vector<RelationShape> shapes;   // parallel, over original names
};

const char* relation_spelling(algebra::PrefRel rel);

/// The solver term of `lhs rel rhs` — the one builder behind encoded
/// constraints and the repair session's per-check extras.
smt::Term relation_term(algebra::PrefRel rel, smt::Term lhs, smt::Term rhs);

Encoding encode(const algebra::SymbolicSpec& spec, MonotonicityMode mode,
                const SymbolTable& symbols);

/// Declares every symbol (positive, like the script's Sig type) on a fresh
/// `ctx` and asserts enc's terms in encoding order, labelled with their
/// lines, so the returned ids[i] == i asserts constraint i.
std::vector<smt::AssertionId> load(const SymbolTable& symbols,
                                   const Encoding& enc, smt::Context& ctx);

std::string render_script(const algebra::SymbolicSpec& spec,
                          MonotonicityMode mode, const SymbolTable& symbols,
                          const Encoding& enc);

}  // namespace fsr::encoding

#endif  // FSR_FSR_CONSTRAINT_ENCODER_H
