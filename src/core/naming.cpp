#include "core/naming.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace rbay::core {

TreeTable::TreeTable(std::shared_ptr<const std::vector<TreeSpec>> specs,
                     const std::vector<std::string>& site_names)
    : specs_(std::move(specs)), site_count_(site_names.size()) {
  topics_.reserve(specs_->size() * site_count_);
  for (std::size_t i = 0; i < specs_->size(); ++i) {
    const auto& canonical = (*specs_)[i].canonical;
    RBAY_REQUIRE(by_canonical_.emplace(canonical, i).second, "duplicate tree spec canonical");
    for (const auto& site_name : site_names) topics_.push_back(site_topic(canonical, site_name));
  }
}

std::optional<std::size_t> TreeTable::spec_index(const std::string& canonical) const {
  auto it = by_canonical_.find(canonical);
  if (it == by_canonical_.end()) return std::nullopt;
  return it->second;
}

void Taxonomy::add_major(const std::string& attribute) {
  if (!is_major(attribute)) majors_.push_back(attribute);
}

bool Taxonomy::is_major(const std::string& attribute) const {
  return std::find(majors_.begin(), majors_.end(), attribute) != majors_.end();
}

bool Taxonomy::link(const std::string& attribute, const std::string& parent) {
  if (attribute == parent) return false;
  // Refuse links that would create a cycle.
  std::string at = parent;
  int steps = 0;
  while (true) {
    if (at == attribute) return false;
    auto it = parents_.find(at);
    if (it == parents_.end()) break;
    at = it->second;
    if (++steps > 64) return false;
  }
  parents_[attribute] = parent;
  return true;
}

std::optional<std::string> Taxonomy::major_of(const std::string& attribute) const {
  std::string at = attribute;
  int steps = 0;
  while (!is_major(at)) {
    auto it = parents_.find(at);
    if (it == parents_.end()) return std::nullopt;
    at = it->second;
    if (++steps > 64) return std::nullopt;
  }
  return at;
}

}  // namespace rbay::core
