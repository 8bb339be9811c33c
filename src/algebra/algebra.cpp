#include "algebra/algebra.h"

namespace fsr::algebra {

std::optional<Value> RoutingAlgebra::combined_extend(const Value& label,
                                                     const Value& sig) const {
  // `label` is the receiver-side label of the link the route crosses. Both
  // filters are keyed by it (see the orientation note on export_allows):
  // the import filter is the receiver's own, and the export filter row for
  // a receiver-side label describes what the sender may announce over the
  // reverse link. A rejection by either yields phi (std::nullopt).
  if (!import_allows(label, sig)) return std::nullopt;
  if (!export_allows(label, sig)) return std::nullopt;
  return extend(label, sig);
}

std::string canonical_spec(const SymbolicSpec& spec) {
  std::string out = "sigs=";
  for (const std::string& sig : spec.signatures) out += sig + ",";
  out += ";prefs=";
  for (const auto& pref : spec.preferences) {
    const char* rel = pref.rel == PrefRel::equal             ? "="
                      : pref.rel == PrefRel::better_or_equal ? "<="
                                                             : "<";
    out += pref.lhs + rel + pref.rhs + ",";
  }
  out += ";exts=";
  for (const auto& ext : spec.extensions) {
    out += ext.label + "(+)" + ext.from_sig + "=" + ext.to_sig + ",";
  }
  out += ";templates=";
  for (const auto& tmpl : spec.additive_templates) {
    out += std::to_string(tmpl.delta) + ",";
  }
  return out;
}

}  // namespace fsr::algebra
