#include "model/workload.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "util/rng.hpp"

namespace rbay::model {

namespace {

const char* kBrands[] = {"acme", "zen", "omni"};
const char* kModels[] = {"m1", "m2", "m3"};
const double kCpus[] = {0.1, 0.3, 0.6, 0.9};
const double kDisks[] = {50.0, 100.0, 200.0};

query::Predicate pred(const std::string& attr, query::CompareOp op,
                      store::AttributeValue literal) {
  query::Predicate p;
  p.attribute = attr;
  p.op = op;
  p.literal = std::move(literal);
  return p;
}

/// The query-able predicate pool.  Indexes 0-2 are tree-backed directly;
/// brand resolves to the has:brand existence tree (remaining-predicate
/// filtering at the members); model resolves through the taxonomy link.
std::vector<query::Predicate> predicate_pool(util::Rng& rng) {
  std::vector<query::Predicate> pool;
  pool.push_back(pred("GPU", query::CompareOp::Eq, store::AttributeValue{true}));
  pool.push_back(pred("CPU", query::CompareOp::Less, store::AttributeValue{0.5}));
  pool.push_back(pred("disk", query::CompareOp::GreaterEq, store::AttributeValue{100.0}));
  pool.push_back(pred("brand", query::CompareOp::Eq,
                      store::AttributeValue{std::string(kBrands[rng.uniform(3)])}));
  pool.push_back(pred("model", query::CompareOp::Eq,
                      store::AttributeValue{std::string(kModels[rng.uniform(3)])}));
  return pool;
}

}  // namespace

std::vector<core::TreeSpec> workload_tree_specs() {
  std::vector<core::TreeSpec> specs;
  specs.push_back(core::TreeSpec::from_predicate(
      pred("GPU", query::CompareOp::Eq, store::AttributeValue{true})));
  specs.push_back(core::TreeSpec::from_predicate(
      pred("CPU", query::CompareOp::Less, store::AttributeValue{0.5})));
  specs.push_back(core::TreeSpec::from_predicate(
      pred("disk", query::CompareOp::GreaterEq, store::AttributeValue{100.0})));
  specs.push_back(core::TreeSpec::existence("brand"));
  return specs;
}

core::Taxonomy workload_taxonomy() {
  core::Taxonomy taxonomy;
  taxonomy.add_major("brand");
  taxonomy.link("model", "brand");
  return taxonomy;
}

std::string site_name_of(const WorkloadSpec& spec, std::size_t node) {
  return "Site" + std::to_string(node / spec.per_site);
}

std::string site_target(const WorkloadSpec& spec, std::size_t node) {
  return site_name_of(spec, node) + ":" + std::to_string(node % spec.per_site);
}

std::string Op::describe() const {
  std::ostringstream os;
  switch (kind) {
    case OpKind::Post:
      os << "post n" << node << " " << attr << "=" << value.to_string();
      break;
    case OpKind::Remove:
      os << "remove n" << node << " " << attr;
      break;
    case OpKind::Hide:
      os << "hide n" << node << " " << attr;
      break;
    case OpKind::Expose:
      os << "expose n" << node << " " << attr;
      break;
    case OpKind::AdminHide:
      os << "admin-hide site" << site_a << " " << canonical << " " << attr;
      break;
    case OpKind::AdminExpose:
      os << "admin-expose site" << site_a << " " << canonical << " " << attr;
      break;
    case OpKind::WriteBurst:
      os << "burst n" << node << " " << attr << "=";
      for (std::size_t i = 0; i < burst.size(); ++i) {
        os << (i > 0 ? "," : "") << burst[i].to_string();
      }
      break;
    case OpKind::Crash:
      os << "crash n" << node;
      break;
    case OpKind::Outage:
      os << "outage n" << node;
      break;
    case OpKind::Recover:
      os << "recover n" << node;
      break;
    case OpKind::Partition:
      os << "partition site" << site_a << " <-> site" << site_b;
      break;
    case OpKind::Heal:
      os << "heal site" << site_a << " <-> site" << site_b;
      break;
    case OpKind::Weather:
      os << "weather site" << site_a << " -> site" << site_b << " "
         << fault::weather_name(weather_kind) << " " << w1;
      if (weather_kind == fault::WeatherKind::LossBurst) os << " " << w2 << " " << w3;
      if (weather_kind == fault::WeatherKind::Reorder) {
        os << " " << window.as_millis() << "ms";
      }
      break;
    case OpKind::WeatherClear:
      os << "weather * * clear";
      break;
    case OpKind::Count:
      os << "count from n" << node << ": " << query.to_string();
      break;
    case OpKind::CountStorm:
      os << "count-storm x" << storm << " from n" << node << ": " << query.to_string();
      break;
    case OpKind::Select:
      os << "select from n" << node << ": " << query.to_string() << " then "
         << (decision == Decision::Release
                 ? "release"
                 : decision == Decision::Commit ? "commit" : "commit-lease");
      break;
    case OpKind::ReleaseOlder:
      os << "release-older slot " << slot;
      break;
    case OpKind::AuditMembership:
      os << "audit-membership";
      break;
    case OpKind::AuditLedger:
      os << "audit-ledger";
      break;
  }
  return os.str();
}

Workload generate_workload(const WorkloadSpec& spec) {
  util::Rng rng{spec.seed};
  Workload out;
  out.spec = spec;

  const std::size_t total = spec.sites * spec.per_site;
  auto is_gateway = [&](std::size_t n) { return n % spec.per_site == 0; };

  // --- initial stores: every node gets the numeric attrs, most get a brand,
  // some a model (a model without a brand is a legal, interesting store:
  // queryable through the taxonomy but outside the existence tree).
  for (std::size_t n = 0; n < total; ++n) {
    auto add = [&](const std::string& attr, store::AttributeValue v) {
      Op op;
      op.kind = OpKind::Post;
      op.node = n;
      op.attr = attr;
      op.value = std::move(v);
      out.setup.push_back(std::move(op));
    };
    add("GPU", store::AttributeValue{rng.uniform(2) == 0});
    add("CPU", store::AttributeValue{kCpus[rng.uniform(4)]});
    add("disk", store::AttributeValue{kDisks[rng.uniform(3)]});
    if (rng.uniform(10) < 7) {
      add("brand", store::AttributeValue{std::string(kBrands[rng.uniform(3)])});
    }
    if (rng.uniform(10) < 4) {
      add("model", store::AttributeValue{std::string(kModels[rng.uniform(3)])});
    }
  }

  // --- generator-side fault mirror so every emitted op is valid when
  // emitted (the harness still applies its skip rule for shrunk lists).
  std::set<std::size_t> crashed;
  std::set<std::pair<net::SiteId, net::SiteId>> partitions;
  bool weather_active = false;
  auto live_nodes = [&](bool gateways_too) {
    std::vector<std::size_t> pool;
    for (std::size_t n = 0; n < total; ++n) {
      if (crashed.count(n) > 0) continue;
      if (!gateways_too && is_gateway(n)) continue;
      pool.push_back(n);
    }
    return pool;
  };

  auto random_attr = [&]() -> std::string {
    const char* attrs[] = {"GPU", "CPU", "disk", "brand", "model"};
    return attrs[rng.uniform(5)];
  };
  auto random_value = [&](const std::string& attr) -> store::AttributeValue {
    if (attr == "GPU") return store::AttributeValue{rng.uniform(2) == 0};
    if (attr == "CPU") return store::AttributeValue{kCpus[rng.uniform(4)]};
    if (attr == "disk") return store::AttributeValue{kDisks[rng.uniform(3)]};
    if (attr == "brand") return store::AttributeValue{std::string(kBrands[rng.uniform(3)])};
    return store::AttributeValue{std::string(kModels[rng.uniform(3)])};
  };

  auto random_query = [&](bool count_only) {
    query::Query q;
    q.count_only = count_only;
    if (!count_only) q.k = 1 + static_cast<int>(rng.uniform(3));
    auto pool = predicate_pool(rng);
    q.predicates.push_back(pool[rng.uniform(pool.size())]);
    if (rng.uniform(10) < 4) {
      const auto& second = pool[rng.uniform(pool.size())];
      if (second.attribute != q.predicates[0].attribute) q.predicates.push_back(second);
    }
    if (rng.uniform(10) < 4) {
      q.sites.push_back("Site" + std::to_string(rng.uniform(spec.sites)));
    }
    return q;
  };

  auto emit_mutation = [&]() {
    Op op;
    if (spec.bursts) {
      const auto pick = rng.uniform(100);
      if (pick < 20) {  // same-instant posts that cross a tree predicate
        const auto pool = live_nodes(true);
        const char* attrs[] = {"GPU", "CPU", "disk"};
        op.kind = OpKind::WriteBurst;
        op.node = pool[rng.uniform(pool.size())];
        op.attr = attrs[rng.uniform(3)];
        const auto len = 2 + rng.uniform(3);
        for (std::size_t k = 0; k < len; ++k) op.burst.push_back(random_value(op.attr));
        out.ops.push_back(std::move(op));
        return;
      }
      if (pick < 30) {  // down past the heartbeat miss budget, then back
        const auto pool = live_nodes(false);
        if (!pool.empty()) {
          op.kind = OpKind::Outage;
          op.node = pool[rng.uniform(pool.size())];
          out.ops.push_back(std::move(op));
          return;
        }
      }
    }
    const auto roll = rng.uniform(100);
    if (roll < 12 && crashed.size() < 2) {  // crash (bounded churn)
      const auto pool = live_nodes(false);
      if (!pool.empty()) {
        op.kind = OpKind::Crash;
        op.node = pool[rng.uniform(pool.size())];
        crashed.insert(op.node);
        out.ops.push_back(std::move(op));
        return;
      }
    }
    if (roll >= 12 && roll < 24 && !crashed.empty()) {  // recover
      auto it = crashed.begin();
      std::advance(it, static_cast<long>(rng.uniform(crashed.size())));
      op.kind = OpKind::Recover;
      op.node = *it;
      crashed.erase(it);
      out.ops.push_back(std::move(op));
      return;
    }
    if (roll >= 24 && roll < 30 && partitions.empty() && spec.sites > 1) {  // partition
      const auto a = static_cast<net::SiteId>(rng.uniform(spec.sites));
      auto b = static_cast<net::SiteId>(rng.uniform(spec.sites));
      if (a == b) b = static_cast<net::SiteId>((b + 1) % spec.sites);
      op.kind = OpKind::Partition;
      op.site_a = std::min(a, b);
      op.site_b = std::max(a, b);
      partitions.insert({op.site_a, op.site_b});
      out.ops.push_back(std::move(op));
      return;
    }
    if (roll >= 30 && roll < 38 && !partitions.empty()) {  // heal
      const auto cut = *partitions.begin();
      partitions.erase(partitions.begin());
      op.kind = OpKind::Heal;
      op.site_a = cut.first;
      op.site_b = cut.second;
      out.ops.push_back(std::move(op));
      return;
    }
    if (roll >= 38 && roll < 46) {  // hide / expose
      const auto pool = live_nodes(true);
      op.kind = rng.uniform(2) == 0 ? OpKind::Hide : OpKind::Expose;
      op.node = pool[rng.uniform(pool.size())];
      op.attr = random_attr();
      out.ops.push_back(std::move(op));
      return;
    }
    if (roll >= 46 && roll < 52 && !weather_active) {
      // admin hide / expose over a tree — suppressed while weather is
      // active: the multicast is one-shot, so a burst-lost copy is a true
      // semantic divergence rather than a protocol robustness gap.
      const auto specs = workload_tree_specs();
      const auto& tree = specs[rng.uniform(specs.size())];
      op.kind = rng.uniform(10) < 6 ? OpKind::AdminHide : OpKind::AdminExpose;
      op.site_a = static_cast<net::SiteId>(rng.uniform(spec.sites));
      op.canonical = tree.canonical;
      op.attr = tree.predicate.attribute;
      out.ops.push_back(std::move(op));
      return;
    }
    if (roll >= 52 && roll < 60) {  // remove an attribute
      const auto pool = live_nodes(true);
      op.kind = OpKind::Remove;
      op.node = pool[rng.uniform(pool.size())];
      op.attr = random_attr();
      out.ops.push_back(std::move(op));
      return;
    }
    // default: post a (new) value
    const auto pool = live_nodes(true);
    op.kind = OpKind::Post;
    op.node = pool[rng.uniform(pool.size())];
    op.attr = random_attr();
    op.value = random_value(op.attr);
    out.ops.push_back(std::move(op));
  };

  auto emit_observation = [&]() {
    const auto pool = live_nodes(true);
    Op op;
    const auto roll = rng.uniform(10);
    if (roll < 3) {
      op.kind = OpKind::Count;
      op.node = pool[rng.uniform(pool.size())];
      op.query = random_query(true);
    } else if (roll < 4) {
      // Bursty same-attribute storm: several concurrent copies of one
      // COUNT, so probe coalescing and the answer cache see real load.
      op.kind = OpKind::CountStorm;
      op.node = pool[rng.uniform(pool.size())];
      op.query = random_query(true);
      op.storm = 3 + static_cast<int>(rng.uniform(4));
    } else if (roll < 8) {
      op.kind = OpKind::Select;
      op.node = pool[rng.uniform(pool.size())];
      op.query = random_query(false);
      const auto d = rng.uniform(10);
      if (d < 4) {
        op.decision = Decision::Release;
      } else if (d < 8) {
        op.decision = Decision::Commit;
      } else {
        op.decision = Decision::CommitLease;
        op.lease = util::SimTime::seconds(2);  // expires before the next audit
      }
    } else {
      op.kind = OpKind::ReleaseOlder;
      op.slot = rng.uniform(8);
    }
    out.ops.push_back(std::move(op));
  };

  // Aggressive conditioner settings for the weather matrix: every knob at
  // a level that visibly perturbs delivery but still lets the repair
  // machinery converge within the settle gap once the round heals.
  auto emit_weather = [&]() {
    Op op;
    op.kind = OpKind::Weather;
    const auto a = static_cast<net::SiteId>(rng.uniform(spec.sites));
    auto b = static_cast<net::SiteId>(rng.uniform(spec.sites));
    if (a == b) b = static_cast<net::SiteId>((b + 1) % spec.sites);
    op.site_a = a;
    op.site_b = b;
    switch (rng.uniform(5)) {
      case 0:
        op.weather_kind = fault::WeatherKind::LossBurst;
        op.w1 = 0.1;   // p_enter
        op.w2 = 0.3;   // p_exit
        op.w3 = 0.8;   // p_loss while bad
        break;
      case 1:
        op.weather_kind = fault::WeatherKind::Duplicate;
        op.w1 = 0.5;
        break;
      case 2:
        op.weather_kind = fault::WeatherKind::Reorder;
        op.w1 = 0.5;
        op.window = util::SimTime::millis(20);
        break;
      case 3:
        op.weather_kind = fault::WeatherKind::Gray;
        op.w1 = 4.0;  // one-way delay x4 on a -> b
        break;
      default:
        op.weather_kind = fault::WeatherKind::AsymPartition;
        break;
    }
    weather_active = true;
    out.ops.push_back(std::move(op));
  };
  auto heal_weather = [&]() {
    if (!weather_active) return;
    Op op;
    op.kind = OpKind::WeatherClear;
    out.ops.push_back(std::move(op));
    weather_active = false;
  };

  for (int round = 0; round < spec.rounds; ++round) {
    for (int m = 0; m < spec.mutations_per_round; ++m) {
      if (spec.weather && rng.uniform(100) < 35) {
        emit_weather();
      } else {
        emit_mutation();
      }
    }
    // Weather perturbs delivery, never truth: heal before observing so the
    // settle gap gives the protocols time to repair, and the sequential
    // model (which ignores weather entirely) stays comparable.
    heal_weather();
    for (int o = 0; o < spec.observations_per_round; ++o) emit_observation();
    Op audit_m;
    audit_m.kind = OpKind::AuditMembership;
    out.ops.push_back(audit_m);
    Op audit_l;
    audit_l.kind = OpKind::AuditLedger;
    out.ops.push_back(audit_l);
  }

  // End clean: recover the fallen, heal the cuts (and any weather — the
  // per-round heal already ran, but a shrunk sublist may end mid-round),
  // audit the steady state.
  if (spec.weather) {
    Op op;
    op.kind = OpKind::WeatherClear;
    out.ops.push_back(std::move(op));
  }
  for (const auto n : crashed) {
    Op op;
    op.kind = OpKind::Recover;
    op.node = n;
    out.ops.push_back(std::move(op));
  }
  for (const auto& cut : partitions) {
    Op op;
    op.kind = OpKind::Heal;
    op.site_a = cut.first;
    op.site_b = cut.second;
    out.ops.push_back(std::move(op));
  }
  Op audit_m;
  audit_m.kind = OpKind::AuditMembership;
  out.ops.push_back(audit_m);
  Op audit_l;
  audit_l.kind = OpKind::AuditLedger;
  out.ops.push_back(audit_l);
  return out;
}

}  // namespace rbay::model
