// Unit tests for the routing-algebra layer: values, finite algebras, the
// combined-extension derivation (checked against the paper's published
// Gao-Rexford tables), additive algebras, and lexical products.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "algebra/additive_algebra.h"
#include "algebra/finite_algebra.h"
#include "algebra/lexical_product.h"
#include "algebra/standard_policies.h"
#include "spp/gadgets.h"
#include "spp/random.h"
#include "spp/translate.h"
#include "util/error.h"

namespace fsr::algebra {
namespace {

Value A(const char* s) { return Value::atom(s); }
Value I(std::int64_t v) { return Value::integer(v); }

// ---------------------------------------------------------------- value --

TEST(Value, KindsAndAccessors) {
  EXPECT_EQ(I(7).as_integer(), 7);
  EXPECT_EQ(A("C").as_atom(), "C");
  const Value p = Value::pair(A("C"), I(3));
  EXPECT_EQ(p.first().as_atom(), "C");
  EXPECT_EQ(p.second().as_integer(), 3);
}

TEST(Value, AccessorTypeErrors) {
  EXPECT_THROW(I(1).as_atom(), InvalidArgument);
  EXPECT_THROW(A("x").as_integer(), InvalidArgument);
  EXPECT_THROW(I(1).first(), InvalidArgument);
}

TEST(Value, EqualityAndOrdering) {
  EXPECT_EQ(I(2), I(2));
  EXPECT_NE(I(2), I(3));
  EXPECT_NE(I(2), A("2"));
  EXPECT_LT(I(1), I(2));
  EXPECT_EQ(Value::pair(A("a"), I(1)), Value::pair(A("a"), I(1)));
  EXPECT_NE(Value::pair(A("a"), I(1)), Value::pair(A("a"), I(2)));
}

TEST(Value, ToString) {
  EXPECT_EQ(I(5).to_string(), "5");
  EXPECT_EQ(A("C").to_string(), "C");
  EXPECT_EQ(Value::pair(A("C"), I(2)).to_string(), "(C, 2)");
}

// ------------------------------------------------------ finite algebra --

TEST(FiniteAlgebra, BuilderValidatesNames) {
  FiniteAlgebra::Builder b("t");
  b.add_signature("X");
  EXPECT_THROW(b.prefer("X", PrefRel::strictly_better, "ghost"),
               InvalidArgument);
  EXPECT_THROW(b.set_generation("nolabel", "X", "X"), InvalidArgument);
}

TEST(FiniteAlgebra, DefaultsPhiGenerationAndOpenFilters) {
  FiniteAlgebra::Builder b("t");
  b.add_signature("X");
  b.add_label("l", "l");
  const AlgebraPtr a = b.build();
  EXPECT_TRUE(a->import_allows(A("l"), A("X")));
  EXPECT_TRUE(a->export_allows(A("l"), A("X")));
  EXPECT_FALSE(a->extend(A("l"), A("X")).has_value());  // phi by default
  EXPECT_FALSE(a->originate(A("l")).has_value());
}

TEST(FiniteAlgebra, ComplementIsSymmetric) {
  const AlgebraPtr a = gao_rexford_guideline_a();
  EXPECT_EQ(a->complement(A("c")), A("p"));
  EXPECT_EQ(a->complement(A("p")), A("c"));
  EXPECT_EQ(a->complement(A("r")), A("r"));
}

// The combined (+) of guideline A must reproduce the paper's table:
//        C    R    P
//   c    C    phi  phi
//   r    R    phi  phi
//   p    P    P    P
TEST(FiniteAlgebra, GaoRexfordCombinedTableMatchesPaper) {
  const AlgebraPtr a = gao_rexford_guideline_a();
  const auto combined = [&](const char* l, const char* s) {
    return a->combined_extend(A(l), A(s));
  };
  EXPECT_EQ(combined("c", "C"), A("C"));
  EXPECT_FALSE(combined("c", "R").has_value());
  EXPECT_FALSE(combined("c", "P").has_value());
  EXPECT_EQ(combined("r", "C"), A("R"));
  EXPECT_FALSE(combined("r", "R").has_value());
  EXPECT_FALSE(combined("r", "P").has_value());
  EXPECT_EQ(combined("p", "C"), A("P"));
  EXPECT_EQ(combined("p", "R"), A("P"));
  EXPECT_EQ(combined("p", "P"), A("P"));
}

TEST(FiniteAlgebra, GaoRexfordSymbolicExtensionsAreTheFiveNonPhiEntries) {
  const SymbolicSpec spec = gao_rexford_guideline_a()->symbolic();
  EXPECT_EQ(spec.signatures.size(), 3u);
  EXPECT_EQ(spec.preferences.size(), 3u);
  // Exactly the five constraints of the paper's Section IV-C encoding.
  EXPECT_EQ(spec.extensions.size(), 5u);
}

TEST(FiniteAlgebra, GaoRexfordPreferences) {
  const AlgebraPtr a = gao_rexford_guideline_a();
  EXPECT_EQ(a->compare(A("C"), A("P")), Ordering::better);
  EXPECT_EQ(a->compare(A("P"), A("C")), Ordering::worse);
  EXPECT_EQ(a->compare(A("P"), A("R")), Ordering::equal);
  EXPECT_EQ(a->compare(A("C"), A("C")), Ordering::equal);
}

TEST(FiniteAlgebra, GuidelineBTotalOrder) {
  const AlgebraPtr b = gao_rexford_guideline_b();
  EXPECT_EQ(b->compare(A("C"), A("R")), Ordering::better);
  EXPECT_EQ(b->compare(A("R"), A("P")), Ordering::better);
  EXPECT_EQ(b->compare(A("C"), A("P")), Ordering::better);  // transitivity
}

TEST(FiniteAlgebra, CyclicPreferencesDetected) {
  FiniteAlgebra::Builder b("cyclic");
  b.add_signature("X").add_signature("Y");
  b.add_label("l", "l");
  b.prefer("X", PrefRel::strictly_better, "Y");
  b.prefer("Y", PrefRel::strictly_better, "X");
  const AlgebraPtr a = b.build();
  const auto* finite = dynamic_cast<const FiniteAlgebra*>(a.get());
  ASSERT_NE(finite, nullptr);
  EXPECT_FALSE(finite->has_consistent_preferences());
  EXPECT_THROW(a->compare(A("X"), A("Y")), InvalidArgument);
  // Symbolic access still works so the analyzer can diagnose the cycle.
  EXPECT_EQ(a->symbolic().preferences.size(), 2u);
}

TEST(FiniteAlgebra, EqualViaMutualWeakConstraints) {
  FiniteAlgebra::Builder b("weak");
  b.add_signature("X").add_signature("Y");
  b.add_label("l", "l");
  b.prefer("X", PrefRel::better_or_equal, "Y");
  b.prefer("Y", PrefRel::better_or_equal, "X");
  const AlgebraPtr a = b.build();
  EXPECT_EQ(a->compare(A("X"), A("Y")), Ordering::equal);
}

TEST(FiniteAlgebra, IncomparableWhenUnrelated) {
  FiniteAlgebra::Builder b("partial");
  b.add_signature("X").add_signature("Y").add_signature("Z");
  b.add_label("l", "l");
  b.prefer("X", PrefRel::strictly_better, "Y");
  const AlgebraPtr a = b.build();
  EXPECT_EQ(a->compare(A("X"), A("Z")), Ordering::incomparable);
}

TEST(FiniteAlgebra, BackupRoutingDegradesAcrossBackupLinks) {
  const AlgebraPtr a = backup_routing();
  EXPECT_EQ(a->extend(A("b"), A("C")), A("B"));
  EXPECT_EQ(a->extend(A("c"), A("B")), A("B"));  // sticky
  EXPECT_EQ(a->compare(A("P"), A("B")), Ordering::better);
  EXPECT_EQ(a->compare(A("C"), A("B")), Ordering::better);
  // Backup routes may be exported towards providers (that is the point).
  EXPECT_TRUE(a->export_allows(A("c"), A("B")));
  EXPECT_FALSE(a->export_allows(A("c"), A("P")));
}

// ---------------------------------------------------- additive algebra --

TEST(AdditiveAlgebra, HopCountSemantics) {
  const AlgebraPtr a = shortest_hop_count();
  EXPECT_EQ(a->extend(I(1), I(3)), I(4));
  EXPECT_EQ(a->originate(I(1)), I(1));
  EXPECT_EQ(a->compare(I(2), I(5)), Ordering::better);
  EXPECT_EQ(a->compare(I(5), I(5)), Ordering::equal);
  EXPECT_TRUE(a->import_allows(I(1), I(9)));
  EXPECT_TRUE(a->export_allows(I(1), I(9)));
  EXPECT_EQ(a->complement(I(1)), I(1));
}

TEST(AdditiveAlgebra, SymbolicTemplatesPerWeight) {
  const AlgebraPtr a = igp_cost({5, 10});
  const SymbolicSpec spec = a->symbolic();
  EXPECT_TRUE(spec.signatures.empty());
  ASSERT_EQ(spec.additive_templates.size(), 2u);
  EXPECT_EQ(spec.additive_templates[0].delta, 5);
  EXPECT_EQ(spec.additive_templates[1].delta, 10);
}

TEST(AdditiveAlgebra, RejectsEmptyWeights) {
  EXPECT_THROW(AdditiveAlgebra("x", {}), InvalidArgument);
}

// ----------------------------------------------------- lexical product --

TEST(LexicalProduct, PairwiseSemantics) {
  const AlgebraPtr gr_hops = gao_rexford_with_hop_count();
  const Value label = Value::pair(A("c"), I(1));
  const Value sig = Value::pair(A("C"), I(2));
  const auto extended = gr_hops->extend(label, sig);
  ASSERT_TRUE(extended.has_value());
  EXPECT_EQ(*extended, Value::pair(A("C"), I(3)));
}

TEST(LexicalProduct, PrimaryDecidesBeforeTiebreak) {
  const AlgebraPtr gr_hops = gao_rexford_with_hop_count();
  // Customer route with MORE hops still beats provider route with fewer.
  EXPECT_EQ(gr_hops->compare(Value::pair(A("C"), I(9)),
                             Value::pair(A("P"), I(1))),
            Ordering::better);
  // Equal class: hop count breaks the tie.
  EXPECT_EQ(gr_hops->compare(Value::pair(A("C"), I(2)),
                             Value::pair(A("C"), I(4))),
            Ordering::better);
  // P and R are equally preferred; hop count decides.
  EXPECT_EQ(gr_hops->compare(Value::pair(A("P"), I(3)),
                             Value::pair(A("R"), I(2))),
            Ordering::worse);
}

TEST(LexicalProduct, PhiInEitherComponentProhibits) {
  const AlgebraPtr gr_hops = gao_rexford_with_hop_count();
  // Combined c (+) P = phi: the business factor's export filter rejects
  // announcing provider routes towards a provider. (Plain extend is only
  // the generation operator (+)_P, which stays defined.)
  EXPECT_FALSE(gr_hops
                   ->combined_extend(Value::pair(A("c"), I(1)),
                                     Value::pair(A("P"), I(2)))
                   .has_value());
  EXPECT_TRUE(gr_hops
                  ->extend(Value::pair(A("c"), I(1)),
                           Value::pair(A("P"), I(2)))
                  .has_value());
}

TEST(LexicalProduct, ExportFilterComesFromBusinessFactor) {
  const AlgebraPtr gr_hops = gao_rexford_with_hop_count();
  EXPECT_FALSE(gr_hops->export_allows(Value::pair(A("c"), I(1)),
                                      Value::pair(A("P"), I(2))));
  EXPECT_TRUE(gr_hops->export_allows(Value::pair(A("p"), I(1)),
                                     Value::pair(A("P"), I(2))));
}

TEST(LexicalProduct, FactorsFlattenNestedProducts) {
  const AlgebraPtr nested = lexical_product(
      gao_rexford_guideline_a(),
      lexical_product(bandwidth_classes({10, 100}), shortest_hop_count()));
  EXPECT_EQ(nested->lexical_factors().size(), 3u);
}

TEST(LexicalProduct, OriginationComposes) {
  const AlgebraPtr gr_hops = gao_rexford_with_hop_count();
  const auto orig = gr_hops->originate(Value::pair(A("c"), I(1)));
  ASSERT_TRUE(orig.has_value());
  EXPECT_EQ(*orig, Value::pair(A("C"), I(1)));
}

// ------------------------------------------------------ bandwidth ------

TEST(BandwidthClasses, MinSemanticsAndPreference) {
  const AlgebraPtr bw = bandwidth_classes({10, 100, 1000});
  EXPECT_EQ(bw->extend(A("bw100"), A("bw1000")), A("bw100"));  // bottleneck
  EXPECT_EQ(bw->extend(A("bw1000"), A("bw10")), A("bw10"));
  EXPECT_EQ(bw->compare(A("bw1000"), A("bw10")), Ordering::better);
}

TEST(BandwidthClasses, NotStrictlyMonotone) {
  // min(link, route) can leave the class unchanged: the symbolic spec must
  // contain an extension with from == to, which breaks strictness.
  const SymbolicSpec spec = bandwidth_classes({10, 100})->symbolic();
  bool has_fixed_point = false;
  for (const auto& ext : spec.extensions) {
    if (ext.from_sig == ext.to_sig) has_fixed_point = true;
  }
  EXPECT_TRUE(has_fixed_point);
}

// ------------------------------------------------- symbolic() extensions --

using ExtensionRow =
    std::tuple<std::string, std::string, std::string, std::string>;

std::vector<ExtensionRow> rows(
    const std::vector<SymbolicSpec::Extension>& extensions) {
  std::vector<ExtensionRow> out;
  for (const auto& ext : extensions) {
    out.emplace_back(ext.label, ext.from_sig, ext.to_sig, ext.provenance);
  }
  return out;
}

// Reference oracle: the original symbolic() derivation, which asks
// combined_extend about every label x signature pair.
std::vector<ExtensionRow> reference_extensions(const FiniteAlgebra& algebra) {
  std::vector<ExtensionRow> out;
  for (const std::string& label : algebra.labels()) {
    for (const std::string& sig : algebra.signatures()) {
      const std::optional<Value> extended =
          algebra.combined_extend(A(label.c_str()), A(sig.c_str()));
      if (!extended.has_value()) continue;
      const std::string& to = extended->as_atom();
      out.emplace_back(label, sig, to, label + " (+) " + sig + " = " + to);
    }
  }
  return out;
}

/// Compares every FiniteAlgebra factor of `algebra` against the oracle;
/// returns how many factors were compared.
int expect_oracle_extensions(const RoutingAlgebra& algebra) {
  std::vector<const RoutingAlgebra*> factors = algebra.lexical_factors();
  if (factors.empty()) factors.push_back(&algebra);
  int compared = 0;
  for (const RoutingAlgebra* factor : factors) {
    const auto* finite = dynamic_cast<const FiniteAlgebra*>(factor);
    if (finite == nullptr) continue;
    EXPECT_EQ(rows(finite->symbolic().extensions),
              reference_extensions(*finite))
        << finite->name();
    ++compared;
  }
  return compared;
}

/// True when some defined (+)_P entry is dropped by a filter — what makes
/// a policy exercise the filter half of symbolic().
bool filters_drop_an_entry(const FiniteAlgebra& algebra) {
  for (const std::string& label : algebra.labels()) {
    for (const std::string& sig : algebra.signatures()) {
      const Value l = A(label.c_str());
      const Value s = A(sig.c_str());
      if (algebra.extend(l, s).has_value() &&
          !algebra.combined_extend(l, s).has_value()) {
        return true;
      }
    }
  }
  return false;
}

TEST(SymbolicSpec, StandardPoliciesMatchTheLabelBySignatureWalk) {
  for (const AlgebraPtr& filtered :
       {gao_rexford_guideline_a(), gao_rexford_guideline_b(),
        backup_routing()}) {
    SCOPED_TRACE(filtered->name());
    const auto* finite = dynamic_cast<const FiniteAlgebra*>(filtered.get());
    ASSERT_NE(finite, nullptr);
    EXPECT_TRUE(filters_drop_an_entry(*finite));
    EXPECT_EQ(expect_oracle_extensions(*filtered), 1);
  }
  EXPECT_EQ(expect_oracle_extensions(*bandwidth_classes({10, 100, 1000})), 1);
  EXPECT_EQ(expect_oracle_extensions(*widest_shortest({10, 100, 1000})), 1);
  EXPECT_EQ(expect_oracle_extensions(*gao_rexford_with_hop_count()), 1);
}

TEST(SymbolicSpec, GadgetTranslationsMatchTheLabelBySignatureWalk) {
  std::vector<spp::SppInstance> gadgets = {
      spp::good_gadget(), spp::bad_gadget(), spp::disagree_gadget(),
      spp::ibgp_figure3_gadget(), spp::ibgp_figure3_fixed()};
  for (const int length : {1, 2, 4, 8, 16}) {
    gadgets.push_back(spp::good_gadget_chain(length));
    gadgets.push_back(spp::bad_gadget_chain(length));
  }
  for (const spp::SppInstance& gadget : gadgets) {
    EXPECT_EQ(expect_oracle_extensions(*spp::algebra_from_spp(gadget)), 1)
        << gadget.name();
  }
}

TEST(SymbolicSpec, RandomTranslationsMatchTheLabelBySignatureWalk) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    spp::RandomSppShape sweep;
    sweep.min_nodes = sweep.max_nodes = 3 + static_cast<int>(seed % 12);
    const spp::SppInstance instance = spp::random_spp_instance(
        "random-" + std::to_string(seed), seed, sweep);
    EXPECT_EQ(expect_oracle_extensions(*spp::algebra_from_spp(instance)), 1)
        << instance.name();
  }
}


// ------------------------------------------------ preference closure --

// Reference oracle: the original closure, a Floyd-Warshall triple loop
// over vector<vector<bool>>, and the original compare() rules on top.
struct ReferenceClosure {
  std::vector<std::string> signatures;
  std::vector<std::vector<bool>> weak;
  std::vector<std::vector<bool>> strict;
  bool consistent = true;
};

ReferenceClosure reference_closure(const SymbolicSpec& spec) {
  ReferenceClosure out;
  out.signatures = spec.signatures;
  const std::size_t n = out.signatures.size();
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index[out.signatures[i]] = i;
  out.weak.assign(n, std::vector<bool>(n, false));
  out.strict.assign(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) out.weak[i][i] = true;
  for (const auto& pref : spec.preferences) {
    const std::size_t i = index.at(pref.lhs);
    const std::size_t j = index.at(pref.rhs);
    switch (pref.rel) {
      case PrefRel::strictly_better:
        out.weak[i][j] = true;
        out.strict[i][j] = true;
        break;
      case PrefRel::better_or_equal:
        out.weak[i][j] = true;
        break;
      case PrefRel::equal:
        out.weak[i][j] = true;
        out.weak[j][i] = true;
        break;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!out.weak[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (!out.weak[k][j]) continue;
        out.weak[i][j] = true;
        if (out.strict[i][k] || out.strict[k][j]) out.strict[i][j] = true;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (out.strict[i][i]) out.consistent = false;
  }
  return out;
}

Ordering reference_compare(const ReferenceClosure& closure, std::size_t i,
                           std::size_t j) {
  if (i == j) return Ordering::equal;
  if (closure.strict[i][j]) return Ordering::better;
  if (closure.strict[j][i]) return Ordering::worse;
  if (closure.weak[i][j] && closure.weak[j][i]) return Ordering::equal;
  if (closure.weak[i][j]) return Ordering::better;
  if (closure.weak[j][i]) return Ordering::worse;
  return Ordering::incomparable;
}

/// Checks every FiniteAlgebra factor of `algebra` against the reference
/// closure: the same consistency verdict and, when consistent, the same
/// compare() answer for every ordered signature pair. Returns how many
/// factors were compared.
int expect_reference_closure(const RoutingAlgebra& algebra) {
  std::vector<const RoutingAlgebra*> factors = algebra.lexical_factors();
  if (factors.empty()) factors.push_back(&algebra);
  int compared = 0;
  for (const RoutingAlgebra* factor : factors) {
    const auto* finite = dynamic_cast<const FiniteAlgebra*>(factor);
    if (finite == nullptr) continue;
    ++compared;
    const ReferenceClosure closure = reference_closure(finite->symbolic());
    EXPECT_EQ(finite->has_consistent_preferences(), closure.consistent)
        << finite->name();
    if (!closure.consistent) continue;
    const std::size_t n = closure.signatures.size();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const Ordering got = finite->compare(A(closure.signatures[i].c_str()),
                                             A(closure.signatures[j].c_str()));
        if (got != reference_compare(closure, i, j)) {
          ADD_FAILURE() << finite->name() << ": " << closure.signatures[i]
                        << " vs " << closure.signatures[j];
          return compared;
        }
      }
    }
  }
  return compared;
}

TEST(PreferenceClosure, StandardPoliciesMatchTheTripleLoop) {
  for (const AlgebraPtr& policy :
       {gao_rexford_guideline_a(), gao_rexford_guideline_b(),
        backup_routing(), bandwidth_classes({10, 100, 1000}),
        widest_shortest({10, 100, 1000}), gao_rexford_with_hop_count()}) {
    EXPECT_EQ(expect_reference_closure(*policy), 1) << policy->name();
  }
}

TEST(PreferenceClosure, GadgetTranslationsMatchTheTripleLoop) {
  std::vector<spp::SppInstance> gadgets = {
      spp::good_gadget(), spp::bad_gadget(), spp::disagree_gadget(),
      spp::ibgp_figure3_gadget(), spp::ibgp_figure3_fixed()};
  // 24 gadgets take the closure past one 64-bit row word.
  for (const int length : {1, 2, 4, 8, 16, 24}) {
    gadgets.push_back(spp::good_gadget_chain(length));
    gadgets.push_back(spp::bad_gadget_chain(length));
  }
  for (const spp::SppInstance& gadget : gadgets) {
    EXPECT_EQ(expect_reference_closure(*spp::algebra_from_spp(gadget)), 1)
        << gadget.name();
  }
}

TEST(PreferenceClosure, RandomTranslationsMatchTheTripleLoop) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    spp::RandomSppShape sweep;
    sweep.min_nodes = sweep.max_nodes = 3 + static_cast<int>(seed % 30);
    const spp::SppInstance instance = spp::random_spp_instance(
        "random-" + std::to_string(seed), seed, sweep);
    EXPECT_EQ(expect_reference_closure(*spp::algebra_from_spp(instance)), 1)
        << instance.name();
  }
}

/// A FiniteAlgebra over signatures s0..s{n-1} with the given preferences
/// (lhs index, relation, rhs index).
AlgebraPtr preference_algebra(
    std::size_t n,
    const std::vector<std::tuple<std::size_t, PrefRel, std::size_t>>& prefs) {
  FiniteAlgebra::Builder builder("prefs");
  const auto sig = [](std::size_t i) { return "s" + std::to_string(i); };
  for (std::size_t i = 0; i < n; ++i) builder.add_signature(sig(i));
  for (const auto& [lhs, rel, rhs] : prefs) {
    builder.prefer(sig(lhs), rel, sig(rhs));
  }
  return builder.build();
}

TEST(PreferenceClosure, HandBuiltCyclesMatchTheTripleLoop) {
  using P = PrefRel;
  const std::vector<
      std::vector<std::tuple<std::size_t, PrefRel, std::size_t>>>
      cases = {
          // A strict cycle: inconsistent.
          {{0, P::strictly_better, 1},
           {1, P::strictly_better, 2},
           {2, P::strictly_better, 0}},
          // A weak cycle closed by one strict step: inconsistent.
          {{0, P::better_or_equal, 1},
           {1, P::better_or_equal, 2},
           {2, P::strictly_better, 0}},
          // A weak-only cycle: one equivalence class, consistent.
          {{0, P::better_or_equal, 1},
           {1, P::better_or_equal, 2},
           {2, P::better_or_equal, 0},
           {3, P::strictly_better, 0}},
          // Equal constraints chained into a cycle, with strict edges
          // leaving it: consistent.
          {{0, P::equal, 1},
           {1, P::equal, 2},
           {2, P::equal, 0},
           {2, P::strictly_better, 3},
           {3, P::better_or_equal, 4}},
          // An equal edge inside a strict path back to itself:
          // inconsistent.
          {{0, P::equal, 1}, {1, P::strictly_better, 0}},
          // A strict self-preference: inconsistent.
          {{2, P::strictly_better, 2}},
          // Disconnected strict chains: incomparable across them.
          {{0, P::strictly_better, 1}, {2, P::strictly_better, 3}},
      };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    EXPECT_EQ(expect_reference_closure(*preference_algebra(5, cases[c])), 1);
  }
  // Past one 64-bit word: a 130-signature strict chain, then the same
  // chain closed into a cycle through an equal edge.
  std::vector<std::tuple<std::size_t, PrefRel, std::size_t>> chain;
  for (std::size_t i = 0; i + 1 < 130; ++i) {
    chain.emplace_back(i, P::strictly_better, i + 1);
  }
  EXPECT_EQ(expect_reference_closure(*preference_algebra(130, chain)), 1);
  chain.emplace_back(129, P::equal, 0);
  const AlgebraPtr cyclic = preference_algebra(130, chain);
  EXPECT_EQ(expect_reference_closure(*cyclic), 1);
  EXPECT_FALSE(
      dynamic_cast<const FiniteAlgebra&>(*cyclic).has_consistent_preferences());
}

}  // namespace
}  // namespace fsr::algebra
