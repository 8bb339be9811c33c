// Finite table-driven routing algebras.
//
// A FiniteAlgebra enumerates its signatures and labels explicitly and
// defines the three concatenation operators and the preference relation by
// tables — the representation used for the Gao-Rexford guidelines, backup
// routing, bandwidth classes, and SPP-derived instances. Build one through
// FiniteAlgebra::Builder:
//
//   FiniteAlgebra::Builder b("gao-rexford-A");
//   b.add_signature("C"); b.add_signature("P"); b.add_signature("R");
//   b.add_label("c", "p");   // customer link; reverse is a provider link
//   b.add_label("r", "r");   // peer links are their own reverse
//   b.prefer("C", PrefRel::strictly_better, "P", "guideline A");
//   b.set_generation("c", "C", "C");  // c (+)P C = C
//   b.set_export("c", "P", false);    // provider may not re-export P
//   b.set_origination("c", "C");
//   AlgebraPtr a = b.build();
//
// Unspecified generation entries are phi (prohibited); unspecified filter
// entries default to allow, mirroring the paper's presentation where only
// the filtering rows are written down.
#ifndef FSR_ALGEBRA_FINITE_ALGEBRA_H
#define FSR_ALGEBRA_FINITE_ALGEBRA_H

#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <ranges>
#include <string>
#include <vector>

#include "algebra/algebra.h"

namespace fsr::algebra {

class FiniteAlgebra final : public RoutingAlgebra {
 public:
  class Builder;

  const std::string& name() const noexcept override { return name_; }

  bool import_allows(const Value& label, const Value& sig) const override;
  bool export_allows(const Value& label, const Value& sig) const override;
  std::optional<Value> extend(const Value& label,
                              const Value& sig) const override;
  Value complement(const Value& label) const override;
  std::optional<Value> originate(const Value& label) const override;
  Ordering compare(const Value& lhs, const Value& rhs) const override;
  SymbolicSpec symbolic() const override;

  /// The declared signatures and labels, each in sorted order.
  auto signatures() const noexcept { return std::views::keys(signatures_); }
  auto labels() const noexcept { return std::views::keys(complements_); }

  /// True when the declared preferences are free of strict cycles, i.e.
  /// compare() is usable. An algebra with cyclic preferences can still be
  /// analyzed symbolically (the solver reports the cycle as an unsat core)
  /// but cannot drive a protocol execution.
  bool has_consistent_preferences() const noexcept {
    return preferences_consistent_;
  }

 private:
  friend class Builder;
  FiniteAlgebra();

  using TableKey = std::pair<std::string, std::string>;  // (label, sig)

  std::size_t index_of_or_throw(const std::string& sig) const;
  void compute_preference_closure();

  std::string name_;
  // The tables below are filled once by the Builder and never shrink, so
  // their nodes come from one arena, released in one piece with the
  // algebra (declared first: it outlives them).
  std::unique_ptr<std::pmr::monotonic_buffer_resource> arena_;
  // Signature -> its position in sorted order (the closure's row index,
  // assigned by build()).
  std::pmr::map<std::string, std::size_t> signatures_;
  std::pmr::map<std::string, std::string> complements_;  // every label has one
  std::pmr::map<TableKey, std::string> generation_;  // (+)_P, absent = phi
  std::pmr::map<TableKey, bool> import_;             // absent = allow
  std::pmr::map<TableKey, bool> export_;             // absent = allow
  std::pmr::map<std::string, std::string> origination_;  // label -> signature
  std::vector<SymbolicSpec::Preference> preferences_;

  // Preference closure: for each ordered signature pair (i, j), whether
  // sig_i is derivably at least as preferred as sig_j ("weak") and whether
  // some derivation step is strict. Row i is `words_` 64-bit words from
  // i * words_; bit j of it is the pair's entry.
  bool reaches(const std::vector<std::uint64_t>& rows, std::size_t i,
               std::size_t j) const noexcept {
    return (rows[i * words_ + j / 64] >> (j % 64)) & 1u;
  }

  std::size_t words_ = 0;
  std::vector<std::uint64_t> reach_weak_;
  std::vector<std::uint64_t> reach_strict_;
  bool preferences_consistent_ = true;
};

class FiniteAlgebra::Builder {
 public:
  explicit Builder(std::string name);

  Builder& add_signature(const std::string& sig);
  /// Declares a label and its reverse-link label (both are registered).
  Builder& add_label(const std::string& label, const std::string& reverse);

  Builder& prefer(const std::string& lhs, PrefRel rel, const std::string& rhs,
                  std::string provenance = {});

  /// label (+)_P sig = result. Unset entries are phi.
  Builder& set_generation(const std::string& label, const std::string& sig,
                          const std::string& result);
  /// Import filter entry; unset entries allow.
  Builder& set_import(const std::string& label, const std::string& sig,
                      bool allow);
  /// Export filter entry, keyed by the receiver-side label; unset allow.
  Builder& set_export(const std::string& label, const std::string& sig,
                      bool allow);
  /// Signature of a one-hop path over `label`.
  Builder& set_origination(const std::string& label, const std::string& sig);

  /// Validates and produces the immutable algebra. Throws
  /// fsr::InvalidArgument on undeclared names or missing complements.
  AlgebraPtr build();

 private:
  void require_signature(const std::string& sig) const;
  void require_label(const std::string& label) const;

  FiniteAlgebra algebra_;
  bool built_ = false;
};

}  // namespace fsr::algebra

#endif  // FSR_ALGEBRA_FINITE_ALGEBRA_H
