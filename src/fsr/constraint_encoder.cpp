#include "fsr/constraint_encoder.h"

#include <cctype>
#include <utility>

#include "util/error.h"

namespace fsr::encoding {

SymbolTable::SymbolTable(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    std::string symbol;
    for (const char c : name) {
      symbol.push_back(
          std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
    }
    if (symbol.empty() ||
        std::isdigit(static_cast<unsigned char>(symbol.front())) != 0) {
      symbol.insert(symbol.begin(), 's');
      symbol.insert(symbol.begin() + 1, '_');
    }
    while (symbol_to_name_.contains(symbol)) symbol.push_back('_');
    symbol_to_name_.emplace(symbol, name);
    name_to_symbol_.emplace(name, symbol);
    symbols_.push_back(symbol);
  }
}

const std::string& SymbolTable::symbol(const std::string& name) const {
  const auto it = name_to_symbol_.find(name);
  if (it == name_to_symbol_.end()) {
    throw InvalidArgument("symbolic spec references unknown signature '" +
                          name + "'");
  }
  return it->second;
}

const std::string& SymbolTable::original(const std::string& symbol) const {
  return symbol_to_name_.at(symbol);
}

const char* relation_spelling(algebra::PrefRel rel) {
  switch (rel) {
    case algebra::PrefRel::strictly_better:
      return "<";
    case algebra::PrefRel::equal:
      return "=";
    case algebra::PrefRel::better_or_equal:
      return "<=";
  }
  return "<";
}

smt::Term relation_term(algebra::PrefRel rel, smt::Term lhs, smt::Term rhs) {
  switch (rel) {
    case algebra::PrefRel::strictly_better:
      return smt::Term::lt(std::move(lhs), std::move(rhs));
    case algebra::PrefRel::equal:
      return smt::Term::eq(std::move(lhs), std::move(rhs));
    case algebra::PrefRel::better_or_equal:
      return smt::Term::le(std::move(lhs), std::move(rhs));
  }
  return smt::Term::lt(std::move(lhs), std::move(rhs));
}

Encoding encode(const algebra::SymbolicSpec& spec, MonotonicityMode mode,
                const SymbolTable& symbols) {
  Encoding enc;
  const algebra::PrefRel mono = mode == MonotonicityMode::strict
                                    ? algebra::PrefRel::strictly_better
                                    : algebra::PrefRel::better_or_equal;
  // One atom `lhs rel rhs`: line and term over solver symbols, shape over
  // the original names.
  const auto relation = [&](ConstraintProvenance::Kind kind,
                            const std::string& provenance,
                            algebra::PrefRel rel, const std::string& lhs,
                            const std::string& rhs) {
    const std::string& lhs_symbol = symbols.symbol(lhs);
    const std::string& rhs_symbol = symbols.symbol(rhs);
    const std::string spelling = relation_spelling(rel);
    enc.provenance.push_back(ConstraintProvenance{
        kind, provenance,
        "(" + spelling + " " + lhs_symbol + " " + rhs_symbol + ")"});
    enc.terms.push_back(relation_term(rel, smt::Term::variable(lhs_symbol),
                                      smt::Term::variable(rhs_symbol)));
    enc.shapes.push_back(RelationShape{spelling, lhs, rhs});
  };

  // Step 2: one constraint per declared preference.
  for (const auto& pref : spec.preferences) {
    relation(ConstraintProvenance::Kind::preference, pref.provenance,
             pref.rel, pref.lhs, pref.rhs);
  }
  // Step 3: one (strict-)monotonicity constraint per combined (+) entry.
  for (const auto& ext : spec.extensions) {
    relation(ConstraintProvenance::Kind::monotonicity, ext.provenance, mono,
             ext.from_sig, ext.to_sig);
  }
  // Closed-form algebras: universally quantified templates.
  for (const auto& tmpl : spec.additive_templates) {
    std::string line = "(forall (s::Sig) (" +
                       std::string(relation_spelling(mono)) + " s (+ s " +
                       std::to_string(tmpl.delta) + ")))";
    enc.provenance.push_back(ConstraintProvenance{
        ConstraintProvenance::Kind::monotonicity, tmpl.provenance, line});
    enc.terms.push_back(smt::Term::forall_positive(
        "s", relation_term(mono, smt::Term::variable("s"),
                           smt::Term::add(smt::Term::variable("s"),
                                          smt::Term::constant(tmpl.delta)))));
    enc.shapes.push_back(RelationShape{"forall", std::move(line), ""});
  }
  return enc;
}

std::vector<smt::AssertionId> load(const SymbolTable& symbols,
                                   const Encoding& enc, smt::Context& ctx) {
  for (const std::string& symbol : symbols.symbols()) {
    ctx.declare_variable(symbol);
  }
  std::vector<smt::AssertionId> ids;
  ids.reserve(enc.terms.size());
  for (std::size_t i = 0; i < enc.terms.size(); ++i) {
    ids.push_back(ctx.assert_term(enc.terms[i], enc.provenance[i].constraint));
  }
  return ids;
}

std::string render_script(const algebra::SymbolicSpec& spec,
                          MonotonicityMode mode, const SymbolTable& symbols,
                          const Encoding& enc) {
  std::string script;
  script += ";; FSR safety encoding for algebra '" + spec.algebra_name + "'\n";
  script += ";; mode: ";
  script += (mode == MonotonicityMode::strict ? "strict monotonicity"
                                              : "monotonicity");
  script += "\n(define-type Sig (subtype (n::nat) (> n 0)))\n";
  for (const std::string& symbol : symbols.symbols()) {
    script += "(define " + symbol + "::Sig)\n";
  }
  bool wrote_pref_banner = false;
  bool wrote_mono_banner = false;
  for (std::size_t i = 0; i < enc.provenance.size(); ++i) {
    if (enc.provenance[i].kind == ConstraintProvenance::Kind::preference &&
        !wrote_pref_banner) {
      script += ";; route preference constraints\n";
      wrote_pref_banner = true;
    }
    if (enc.provenance[i].kind == ConstraintProvenance::Kind::monotonicity &&
        !wrote_mono_banner) {
      script += (mode == MonotonicityMode::strict
                     ? ";; strict monotonicity constraints\n"
                     : ";; monotonicity constraints\n");
      wrote_mono_banner = true;
    }
    script += "(assert " + enc.provenance[i].constraint + ")\n";
  }
  script += "(check)\n";
  return script;
}

}  // namespace fsr::encoding
