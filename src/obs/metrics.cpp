#include "obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "util/contract.hpp"

namespace rbay::obs {

InternedName intern_name(std::string_view name) {
  static std::mutex mu;
  static std::deque<std::string> names;  // deque: interned strings never move
  static std::unordered_map<std::string_view, std::uint32_t> ids;
  std::lock_guard<std::mutex> lk(mu);
  auto it = ids.find(name);
  if (it == ids.end()) {
    const std::string& stored = names.emplace_back(name);  // the map keys views of it
    it = ids.emplace(stored, static_cast<std::uint32_t>(names.size() - 1)).first;
  }
  return {it->second, &names[it->second]};
}

// --- LatencyHisto -----------------------------------------------------------

void LatencyHisto::add_us(std::int64_t us) {
  if (us < 0) us = 0;  // clock deltas are non-negative; clamp defensively
  Cell& c = detail::slot_cell(cell0_, extra_);
  if (c.count == 0) {
    c.min_us = c.max_us = us;
  } else {
    if (us < c.min_us) c.min_us = us;
    if (us > c.max_us) c.max_us = us;
  }
  ++c.count;
  c.sum_us += us;
  ++c.buckets[bucket_index(static_cast<std::uint64_t>(us))];
}

LatencyHisto::Cell LatencyHisto::merged() const {
  Cell m = cell0_;  // deep copy of the slot-0 buckets
  const auto* b = extra_.load(std::memory_order_acquire);
  if (b != nullptr) {
    for (const Cell& c : b->cells) {
      if (c.count == 0) continue;
      if (m.count == 0) {
        m.min_us = c.min_us;
        m.max_us = c.max_us;
      } else {
        if (c.min_us < m.min_us) m.min_us = c.min_us;
        if (c.max_us > m.max_us) m.max_us = c.max_us;
      }
      m.count += c.count;
      m.sum_us += c.sum_us;
      for (const auto& [index, n] : c.buckets) m.buckets[index] += n;
    }
  }
  return m;
}

std::uint64_t LatencyHisto::count() const {
  std::uint64_t n = cell0_.count;
  if (const auto* b = extra_.load(std::memory_order_acquire)) {
    for (const Cell& c : b->cells) n += c.count;
  }
  return n;
}

std::int64_t LatencyHisto::sum_us() const {
  std::int64_t s = cell0_.sum_us;
  if (const auto* b = extra_.load(std::memory_order_acquire)) {
    for (const Cell& c : b->cells) s += c.sum_us;
  }
  return s;
}

std::int64_t LatencyHisto::min_us() const {
  if (extra_.load(std::memory_order_acquire) == nullptr) {
    return cell0_.count == 0 ? 0 : cell0_.min_us;
  }
  const Cell m = merged();
  return m.count == 0 ? 0 : m.min_us;
}

std::int64_t LatencyHisto::max_us() const {
  if (extra_.load(std::memory_order_acquire) == nullptr) {
    return cell0_.count == 0 ? 0 : cell0_.max_us;
  }
  const Cell m = merged();
  return m.count == 0 ? 0 : m.max_us;
}

int LatencyHisto::bucket_index(std::uint64_t v) {
  constexpr std::uint64_t kSub = 1ULL << kSubBits;
  if (v < kSub) return static_cast<int>(v);  // exact buckets for tiny values
  const int top = 63 - std::countl_zero(v);  // position of the highest set bit
  const int shift = top - kSubBits;
  const auto sub = static_cast<int>((v >> shift) & (kSub - 1));
  return ((shift + 1) << kSubBits) + sub;
}

std::int64_t LatencyHisto::bucket_mid(int index) {
  constexpr int kSub = 1 << kSubBits;
  if (index < kSub) return index;
  const int shift = (index >> kSubBits) - 1;
  const int sub = index & (kSub - 1);
  const auto lo = static_cast<std::int64_t>(kSub + sub) << shift;
  const auto width = std::int64_t{1} << shift;
  return lo + width / 2;
}

std::int64_t LatencyHisto::percentile_of(const Cell& cell, double p) {
  if (cell.count == 0) return 0;
  RBAY_REQUIRE(p >= 0.0 && p <= 100.0, "LatencyHisto::percentile_us: p must be in [0, 100]");
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(cell.count))));
  std::uint64_t seen = 0;
  for (const auto& [index, n] : cell.buckets) {
    seen += n;
    if (seen >= rank) {
      const auto mid = bucket_mid(index);
      return std::min(cell.max_us, std::max(cell.min_us, mid));
    }
  }
  return cell.max_us;
}

std::int64_t LatencyHisto::percentile_us(double p) const {
  if (extra_.load(std::memory_order_acquire) == nullptr) return percentile_of(cell0_, p);
  return percentile_of(merged(), p);
}

void LatencyHisto::write_json_of(const Cell& cell, std::string& out) {
  out += '{';
  json::append_key(out, "count");
  json::append_uint(out, cell.count);
  out += ',';
  json::append_key(out, "sum_us");
  json::append_int(out, cell.sum_us);
  out += ',';
  json::append_key(out, "min_us");
  json::append_int(out, cell.count == 0 ? 0 : cell.min_us);
  out += ',';
  json::append_key(out, "max_us");
  json::append_int(out, cell.count == 0 ? 0 : cell.max_us);
  out += ',';
  json::append_key(out, "p50_us");
  json::append_int(out, percentile_of(cell, 50));
  out += ',';
  json::append_key(out, "p90_us");
  json::append_int(out, percentile_of(cell, 90));
  out += ',';
  json::append_key(out, "p99_us");
  json::append_int(out, percentile_of(cell, 99));
  out += '}';
}

void LatencyHisto::write_json(std::string& out) const {
  if (extra_.load(std::memory_order_acquire) == nullptr) {
    write_json_of(cell0_, out);
    return;
  }
  const Cell m = merged();
  write_json_of(m, out);
}

// --- Scope ------------------------------------------------------------------

void Scope::write_json(std::string& out) const {
  out += '{';
  json::Comma section;
  if (!counters_.empty()) {
    section.next(out);
    json::append_key(out, "counters");
    out += '{';
    json::Comma comma;
    for (const auto& [name, c] : counters_) {
      comma.next(out);
      json::append_key(out, name);
      json::append_uint(out, c.value());
    }
    out += '}';
  }
  if (!gauges_.empty()) {
    section.next(out);
    json::append_key(out, "gauges");
    out += '{';
    json::Comma comma;
    for (const auto& [name, g] : gauges_) {
      comma.next(out);
      json::append_key(out, name);
      out += '{';
      json::append_key(out, "value");
      json::append_int(out, g.value());
      out += ',';
      json::append_key(out, "max");
      json::append_int(out, g.max());
      out += '}';
    }
    out += '}';
  }
  if (!latencies_.empty()) {
    section.next(out);
    json::append_key(out, "latencies");
    out += '{';
    json::Comma comma;
    for (const auto& [name, h] : latencies_) {
      comma.next(out);
      json::append_key(out, name);
      h.write_json(out);
    }
    out += '}';
  }
  out += '}';
}

// --- Registry ---------------------------------------------------------------

void Registry::set_exec_slots(std::uint32_t slots) {
  RBAY_REQUIRE(slots >= 1 && slots <= kMaxExecSlots,
               "Registry::set_exec_slots: slot count out of range (raise kMaxExecSlots)");
  causal_.set_slots(slots);
}

std::string Registry::to_json() const {
  std::string out;
  out.reserve(4096);
  out += '{';
  json::append_key(out, "federation");
  fed_.write_json(out);
  out += ',';
  json::append_key(out, "sites");
  out += '{';
  {
    json::Comma comma;
    for (const auto& [site_id, scope] : sites_) {
      comma.next(out);
      json::append_key(out, std::to_string(site_id));
      scope.write_json(out);
    }
  }
  out += '}';
  out += ',';
  json::append_key(out, "traces");
  write_query_traces_json(causal_, out);
  out += '}';
  out += '\n';
  return out;
}

}  // namespace rbay::obs
