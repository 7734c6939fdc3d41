#pragma once

// Naming: canonical predicate strings, per-site TreeIds, and the hybrid
// naming scheme (§III.C).
//
// A tree exists per (canonical predicate, site): the TreeId is
// SHA-1("<canonical>@<site>" ‖ creator), so tree roots distribute uniformly
// and administrative isolation keeps each site's trees inside that site.
//
// The hybrid scheme avoids one tree per property: only *major* predicates
// get trees; minor properties (model, core size, ...) carry a link to the
// major attribute whose tree contains their candidates — "a pointer for
// each subtree root to link to the global root".  Queries on minor
// attributes search the linked major tree and filter at the members.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pastry/node_id.hpp"
#include "query/sql.hpp"
#include "scribe/messages.hpp"

namespace rbay::core {

/// Federation-wide creator name used when hashing TreeIds.
inline constexpr const char* kFederationCreator = "rbay";

/// TreeId of `canonical` predicate's tree in `site_name`.
inline scribe::TopicId site_topic(const std::string& canonical, const std::string& site_name) {
  return pastry::tree_id(canonical + "@" + site_name, kFederationCreator);
}

/// A federation-registered aggregation tree: nodes whose store satisfies
/// `predicate` join the tree (per site).
struct TreeSpec {
  std::string canonical;       // e.g. "instance=c3.8xlarge", "CPU_utilization<0.1"
  query::Predicate predicate;  // membership condition on the local store

  static TreeSpec from_predicate(query::Predicate p) {
    TreeSpec spec;
    spec.canonical = p.canonical();
    spec.predicate = std::move(p);
    return spec;
  }

  /// Existence tree for a major attribute: members are all nodes exposing
  /// the attribute at all.  Queries on minor attributes resolve (via the
  /// taxonomy) to the linked major's existence tree and filter at members.
  static TreeSpec existence(const std::string& attribute) {
    TreeSpec spec;
    spec.canonical = "has:" + attribute;
    spec.predicate.attribute = attribute;
    spec.predicate.op = query::CompareOp::NotEq;
    spec.predicate.literal = store::AttributeValue{std::string("\x01<none>")};
    return spec;
  }
};

/// Every TreeId of the federation, built once by RBayCluster::finalize from
/// the tree specs × the directory's site names and shared, immutable, by
/// every node: entry (spec, site) is site_topic(spec.canonical,
/// site_names[site]), so hot paths look a TreeId up instead of hashing it.
class TreeTable {
 public:
  /// Canonicals must be unique: two specs with one canonical would name
  /// the same tree twice.
  TreeTable(std::shared_ptr<const std::vector<TreeSpec>> specs,
            const std::vector<std::string>& site_names);

  [[nodiscard]] const std::vector<TreeSpec>& specs() const { return *specs_; }

  /// TreeId of spec `spec`'s tree in site `site`.
  [[nodiscard]] const scribe::TopicId& topic(std::size_t spec, net::SiteId site) const {
    return topics_[spec * site_count_ + site];
  }

  /// Index of the spec with predicate `canonical`, if there is one.
  [[nodiscard]] std::optional<std::size_t> spec_index(const std::string& canonical) const;

 private:
  std::shared_ptr<const std::vector<TreeSpec>> specs_;
  std::size_t site_count_;
  std::vector<scribe::TopicId> topics_;  // spec-major
  std::unordered_map<std::string, std::size_t> by_canonical_;
};

/// Attribute taxonomy implementing the hybrid naming scheme.
class Taxonomy {
 public:
  /// Declares `attribute` as major: predicates on it have their own trees.
  void add_major(const std::string& attribute);

  /// Links a minor `attribute` under `parent` (major or another minor —
  /// chains resolve transitively, e.g. core_size → model → brand).
  /// Returns false on a cycle or self-link (link refused).
  bool link(const std::string& attribute, const std::string& parent);

  [[nodiscard]] bool is_major(const std::string& attribute) const;

  /// The major attribute whose trees cover `attribute` (identity for a
  /// major; transitive parent otherwise).  nullopt if unknown.
  [[nodiscard]] std::optional<std::string> major_of(const std::string& attribute) const;

  [[nodiscard]] std::size_t major_count() const { return majors_.size(); }

 private:
  std::vector<std::string> majors_;
  std::map<std::string, std::string> parents_;  // minor → parent
};

/// Everything a node needs to reach the rest of the federation: site names
/// (index = SiteId) and the designated gateway ("border router", §III.E)
/// of each site.
struct Directory {
  std::vector<std::string> site_names;
  std::vector<pastry::NodeRef> gateways;

  [[nodiscard]] std::optional<net::SiteId> site_by_name(const std::string& name) const {
    for (std::size_t i = 0; i < site_names.size(); ++i) {
      if (site_names[i] == name) return static_cast<net::SiteId>(i);
    }
    return std::nullopt;
  }
};

}  // namespace rbay::core
