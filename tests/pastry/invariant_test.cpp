// Randomized churn invariants: drive a protocol-built overlay through a
// seeded sequence of joins, failures, and recoveries (>= 100 iterations)
// and assert after every step that the Pastry structures keep their
// defining invariants:
//
//   leaf sets     sorted by clockwise (resp. counter-clockwise) ring
//                 distance, duplicate-free, never the owner, never a dead
//                 node, capped at half_size per side, and symmetric:
//                 A's immediate successor B names A as immediate
//                 predecessor (ground truth from the god-view ring);
//   routing table row r / column c holds a node sharing exactly r leading
//                 digits with the owner whose digit r equals c, never the
//                 owner itself.
//
// Every assertion carries the seed + iteration so a failure replays
// exactly: rerun with that seed and it fails the same way.
//
// Structure-level variants fuzz LeafSet/RoutingTable directly against a
// brute-force ground truth, without the protocol in the loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "fault/invariants.hpp"
#include "pastry/overlay.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"

namespace rbay::pastry {
namespace {

/// Clockwise arc length from `from` to `to` on the id ring.
NodeId cw_distance(const NodeId& from, const NodeId& to) { return to - from; }

NodeRef synth_ref(std::uint64_t n) {
  return NodeRef{util::Sha1::hash128("inv-" + std::to_string(n)),
                 static_cast<net::EndpointId>(n), 0};
}

/// A node table holding synth_ref(0..n), so synth_ref(k) has index k.
NodeTable synth_table(std::uint64_t n) {
  NodeTable table;
  for (std::uint64_t k = 0; k <= n; ++k) table.add(synth_ref(k));
  return table;
}

// --- structure-level fuzz ----------------------------------------------------

TEST(LeafSetInvariant, RandomizedConsiderRemoveMatchesGroundTruth) {
  for (const std::uint64_t seed : {7ULL, 42ULL, 1337ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng{seed};
    const auto nodes = synth_table(40);
    const auto owner = synth_ref(0);
    LeafSet leaves{nodes, 0, 4};
    std::set<std::uint64_t> live;  // ground truth membership

    for (int iter = 0; iter < 150; ++iter) {
      SCOPED_TRACE("iter=" + std::to_string(iter));
      const auto n = 1 + rng.uniform(40);
      if (live.count(n) != 0 && rng.chance(0.4)) {
        leaves.remove(synth_ref(n).id);
        live.erase(n);
      } else {
        leaves.consider(static_cast<NodeIndex>(n));
        live.insert(n);
      }
      // Re-feed everything live: the set must then hold exactly the
      // half_size closest per side, in distance order.
      for (const auto m : live) leaves.consider(static_cast<NodeIndex>(m));

      std::vector<NodeRef> refs;
      refs.reserve(live.size());
      for (const auto m : live) refs.push_back(synth_ref(m));

      auto expect_side = [&](bool clockwise) {
        auto sorted = refs;
        std::sort(sorted.begin(), sorted.end(), [&](const NodeRef& a, const NodeRef& b) {
          return clockwise ? cw_distance(owner.id, a.id) < cw_distance(owner.id, b.id)
                           : cw_distance(a.id, owner.id) < cw_distance(b.id, owner.id);
        });
        if (sorted.size() > static_cast<std::size_t>(leaves.half_size())) {
          sorted.resize(static_cast<std::size_t>(leaves.half_size()));
        }
        return sorted;
      };
      const auto cw = leaves.clockwise();
      const auto ccw = leaves.counter_clockwise();
      ASSERT_EQ(std::vector<NodeRef>(cw.begin(), cw.end()), expect_side(true));
      ASSERT_EQ(std::vector<NodeRef>(ccw.begin(), ccw.end()), expect_side(false));
    }
  }
}

TEST(RoutingTableInvariant, RandomizedConsiderRemoveKeepsPrefixRule) {
  for (const std::uint64_t seed : {3ULL, 99ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng{seed};
    const auto nodes = synth_table(500);
    const auto owner = synth_ref(0);
    RoutingTable table{nodes, 0};
    for (int iter = 0; iter < 200; ++iter) {
      SCOPED_TRACE("iter=" + std::to_string(iter));
      const auto n = 1 + rng.uniform(500);
      if (rng.chance(0.2)) {
        table.remove(synth_ref(n).id);
      } else {
        table.consider(static_cast<NodeIndex>(n), static_cast<std::int64_t>(rng.uniform(100'000)));
      }
      for (int row = 0; row < kDigits; ++row) {
        for (int col = 0; col < kDigitValues; ++col) {
          const auto entry = table.entry(row, col);
          if (!entry.has_value()) continue;
          ASSERT_NE(entry->id, owner.id) << "owner stored in its own table";
          ASSERT_EQ(owner.id.shared_prefix_digits(entry->id), row)
              << "row " << row << " col " << col << " holds " << entry->id.to_hex();
          ASSERT_EQ(entry->id.digit(row), static_cast<unsigned>(col));
        }
      }
    }
  }
}

// --- overlay-level churn -----------------------------------------------------

class ChurnHarness {
 public:
  explicit ChurnHarness(std::uint64_t seed)
      : seed_(seed), engine_(seed), overlay_(engine_, net::Topology::single_site()) {
    // Bootstrap a ring through the join protocol.
    for (std::size_t i = 0; i < kInitial; ++i) add_node();
  }

  void add_node() {
    auto& node = overlay_.create_node(0);
    if (overlay_.size() > 1) {
      const auto bootstrap = pick_live_except(overlay_.size() - 1);
      node.join(overlay_.ref(bootstrap));
    }
    engine_.run();
  }

  void step() {
    const auto live = live_count();
    // Keep the live population in a band where leaf sets stay saturated
    // enough for the symmetry check to be exact (half_size covers the ring).
    if (live <= kMinLive) {
      if (failed_count() > 0 && engine_.rng().chance(0.5)) {
        recover_random();
      } else {
        add_node();
      }
    } else if (overlay_.size() >= kMaxNodes || engine_.rng().chance(0.6)) {
      if (engine_.rng().chance(0.5) && failed_count() > 0) {
        recover_random();
      } else {
        fail_random();
      }
    } else {
      add_node();
    }
    engine_.run();
  }

  void check_invariants(int iter) const {
    SCOPED_TRACE("seed=" + std::to_string(seed_) + " iter=" + std::to_string(iter));
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < overlay_.size(); ++i) {
      if (!overlay_.is_failed(i)) live.push_back(i);
    }
    // God-view ring order for the symmetry check.
    std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
      return overlay_.ref(a).id < overlay_.ref(b).id;
    });

    for (std::size_t pos = 0; pos < live.size(); ++pos) {
      const auto idx = live[pos];
      const auto& node = overlay_.node(idx);
      SCOPED_TRACE("node=" + std::to_string(idx));
      check_leaf_side(node, node.leaf_set().clockwise(), /*clockwise=*/true);
      check_leaf_side(node, node.leaf_set().counter_clockwise(), /*clockwise=*/false);
      check_routing_table(node, node.routing_table());
      check_routing_table(node, node.site_routing_table());

      // Symmetry against the true ring: my immediate clockwise neighbor
      // must be the next live id, and it must name me as its immediate
      // counter-clockwise neighbor.
      if (live.size() < 2) continue;
      const auto succ = live[(pos + 1) % live.size()];
      const auto cw = node.leaf_set().clockwise();
      ASSERT_FALSE(cw.empty()) << "live node lost its whole clockwise side";
      ASSERT_EQ(cw.front().id, overlay_.ref(succ).id)
          << "immediate successor is not the next live id on the ring";
      const auto succ_ccw = overlay_.node(succ).leaf_set().counter_clockwise();
      ASSERT_FALSE(succ_ccw.empty());
      ASSERT_EQ(succ_ccw.front().id, node.self().id)
          << "successor does not point back (asymmetric leaf sets)";
    }

    // The chaos harness ports these same checks as a library; the two
    // implementations must always agree.
    const auto report = fault::check_pastry(overlay_);
    ASSERT_TRUE(report.ok()) << report.to_string();
  }

  [[nodiscard]] std::size_t live_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < overlay_.size(); ++i) n += overlay_.is_failed(i) ? 0 : 1;
    return n;
  }

 private:
  static constexpr std::size_t kInitial = 10;
  static constexpr std::size_t kMinLive = 6;
  static constexpr std::size_t kMaxNodes = 16;

  [[nodiscard]] std::size_t failed_count() const { return overlay_.size() - live_count(); }

  std::size_t pick_live_except(std::size_t except) {
    for (;;) {
      const auto i = engine_.rng().uniform(overlay_.size());
      if (i != except && !overlay_.is_failed(i)) return i;
    }
  }

  void fail_random() {
    if (live_count() <= kMinLive) return;
    const auto i = pick_live_except(SIZE_MAX);
    overlay_.fail_node(i);
  }

  void recover_random() {
    for (;;) {
      const auto i = engine_.rng().uniform(overlay_.size());
      if (overlay_.is_failed(i)) {
        overlay_.recover_node(i);
        return;
      }
    }
  }

  void check_leaf_side(const PastryNode& node, const NodeRefView& side,
                       bool clockwise) const {
    ASSERT_LE(side.size(), static_cast<std::size_t>(node.leaf_set().half_size()));
    std::set<NodeId> seen;
    for (std::size_t i = 0; i < side.size(); ++i) {
      ASSERT_NE(side[i].id, node.self().id) << "leaf set contains its owner";
      ASSERT_FALSE(overlay_.is_failed(overlay_.index_of(side[i].id)))
          << "leaf set contains dead node " << side[i].id.to_hex();
      ASSERT_TRUE(seen.insert(side[i].id).second) << "duplicate leaf entry";
      if (i == 0) continue;
      const auto& owner = node.self().id;
      const auto prev = clockwise ? cw_distance(owner, side[i - 1].id)
                                  : cw_distance(side[i - 1].id, owner);
      const auto cur = clockwise ? cw_distance(owner, side[i].id)
                                 : cw_distance(side[i].id, owner);
      ASSERT_LT(prev, cur) << (clockwise ? "clockwise" : "counter-clockwise")
                           << " side not sorted by ring distance";
    }
  }

  void check_routing_table(const PastryNode& node, const RoutingTable& table) const {
    const auto& owner = node.self().id;
    for (int row = 0; row < kDigits; ++row) {
      for (int col = 0; col < kDigitValues; ++col) {
        const auto entry = table.entry(row, col);
        if (!entry.has_value()) continue;
        ASSERT_NE(entry->id, owner) << "owner stored in its own routing table";
        ASSERT_EQ(owner.shared_prefix_digits(entry->id), row)
            << "row " << row << " col " << col << " holds " << entry->id.to_hex();
        ASSERT_EQ(entry->id.digit(row), static_cast<unsigned>(col));
      }
    }
  }

  std::uint64_t seed_;
  sim::Engine engine_;
  Overlay overlay_;
};

TEST(OverlayChurnInvariant, HoldUnderRandomizedJoinLeave) {
  for (const std::uint64_t seed : {11ULL, 2026ULL}) {
    ChurnHarness harness{seed};
    harness.check_invariants(-1);
    if (::testing::Test::HasFatalFailure()) return;
    for (int iter = 0; iter < 110; ++iter) {
      harness.step();
      harness.check_invariants(iter);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace rbay::pastry
