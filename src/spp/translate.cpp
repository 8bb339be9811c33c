#include "spp/translate.h"

#include <algorithm>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "algebra/finite_algebra.h"
#include "util/error.h"

namespace fsr::spp {

namespace {

/// Concatenates `parts` into one string sized up front.
std::string concat(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (const std::string_view part : parts) out += part;
  return out;
}

}  // namespace

std::string spp_label(const std::string& u, const std::string& v) {
  return concat({"l(", u, "-", v, ")"});
}

std::string spp_signature(const Path& path) {
  return concat({"r(", path_name(path), ")"});
}

algebra::AlgebraPtr algebra_from_spp(const SppInstance& instance) {
  if (instance.permitted_path_count() == 0) {
    throw InvalidArgument("SPP instance '" + instance.name() +
                          "' has no permitted paths");
  }
  algebra::FiniteAlgebra::Builder builder("spp:" + instance.name());

  // Labels: one per direction of every declared link.
  for (const auto& [u, v] : instance.edges()) {
    builder.add_label(spp_label(u, v), spp_label(v, u));
  }

  // Signatures: one per permitted path, each path's name and signature
  // built once. Path i of nodes()[k] is entry first[k] + i.
  const std::vector<std::string>& nodes = instance.nodes();
  std::vector<std::size_t> first;
  std::vector<std::string> names;
  std::vector<std::string> signatures;
  first.reserve(nodes.size());
  names.reserve(instance.permitted_path_count());
  signatures.reserve(instance.permitted_path_count());
  for (const std::string& node : nodes) {
    first.push_back(names.size());
    for (const Path& path : instance.permitted(node)) {
      names.push_back(path_name(path));
      signatures.push_back(concat({"r(", names.back(), ")"}));
      builder.add_signature(signatures.back());
    }
  }

  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const auto& ranked = instance.permitted(nodes[k]);
    const std::size_t at = first[k];

    // Rankings: r1 < r2 < ... < rn as pairwise strict preferences.
    for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
      builder.prefer(signatures[at + i], algebra::PrefRel::strictly_better,
                     signatures[at + i + 1],
                     concat({"rank at ", nodes[k], ": ", names[at + i],
                             " < ", names[at + i + 1]}));
    }

    for (std::size_t i = 0; i < ranked.size(); ++i) {
      const Path& path = ranked[i];
      if (path.size() == 2) {
        // One-hop permitted path: a member of the origination set; its
        // signature attaches to the link's label directly.
        builder.set_origination(spp_label(path[0], path[1]),
                                signatures[at + i]);
        continue;
      }
      // Multi-hop: connect to the sub-path when (and only when) the
      // sub-path is itself permitted at the next hop. Paths whose suffix
      // is not permitted stay unconnected — they are constrained only by
      // their node's ranking, exactly as in the paper's Figure-3 walkthrough.
      // The next hop of a multi-hop path is a node, never the destination;
      // the suffix is compared in place.
      const auto next = static_cast<std::size_t>(
          std::lower_bound(nodes.begin(), nodes.end(), path[1]) -
          nodes.begin());
      const auto& next_ranked = instance.permitted(nodes[next]);
      for (std::size_t j = 0; j < next_ranked.size(); ++j) {
        const Path& suffix = next_ranked[j];
        if (suffix.size() + 1 == path.size() &&
            std::equal(suffix.begin(), suffix.end(), path.begin() + 1)) {
          builder.set_generation(spp_label(path[0], path[1]),
                                 signatures[first[next] + j],
                                 signatures[at + i]);
          break;
        }
      }
    }
  }
  return builder.build();
}

}  // namespace fsr::spp
