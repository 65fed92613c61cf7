// PlacementRing: determinism, weight proportionality, minimal disruption
// (DESIGN.md "Elastic membership & rebalancing"). The ring is the
// structural half of the elastic-membership design — plan_rebalance's
// INTERSECT-minimal plans only stay minimal if membership changes remap
// only the keys whose clockwise walk crossed a stolen arc.

#include "ring/ring.h"

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace pfm {
namespace {

PlacementRing make_ring(std::vector<int> nodes, int vnodes = 64,
                        std::uint64_t seed = 0) {
  PlacementRing::Options opts;
  opts.vnodes = vnodes;
  if (seed != 0) opts.seed = seed;
  PlacementRing ring(opts);
  for (const int n : nodes) ring.add_node(n);
  return ring;
}

TEST(PlacementRing, MembershipBasics) {
  PlacementRing ring;
  EXPECT_EQ(ring.size(), 0u);
  ring.add_node(4);
  ring.add_node(5, 2);
  EXPECT_TRUE(ring.contains(4));
  EXPECT_TRUE(ring.contains(5));
  EXPECT_FALSE(ring.contains(6));
  EXPECT_EQ(ring.size(), 2u);
  // vnodes * weight points per member.
  EXPECT_EQ(ring.point_count(),
            static_cast<std::size_t>(ring.options().vnodes) * 3);
  ring.remove_node(4);
  EXPECT_FALSE(ring.contains(4));
  EXPECT_EQ(ring.size(), 1u);
}

TEST(PlacementRing, RejectsMisuse) {
  PlacementRing ring;
  ring.add_node(4);
  EXPECT_THROW(ring.add_node(4), std::invalid_argument);       // duplicate
  EXPECT_THROW(ring.add_node(5, 0), std::invalid_argument);    // weight < 1
  EXPECT_THROW(ring.remove_node(9), std::invalid_argument);    // absent
  EXPECT_THROW(ring.replicas_for(0, 0), std::invalid_argument);
  EXPECT_THROW(ring.replicas_for(0, 2), std::invalid_argument);  // > size
}

TEST(PlacementRing, DeterministicAcrossBuildOrder) {
  // Placements are a pure function of (seed, membership, weights) — the
  // order members were added must not matter.
  PlacementRing a = make_ring({4, 5, 6, 7});
  PlacementRing b = make_ring({7, 5, 4, 6});
  for (std::uint64_t key = 0; key < 256; ++key)
    EXPECT_EQ(a.replicas_for(key, 3), b.replicas_for(key, 3)) << key;
}

TEST(PlacementRing, DeterministicAcrossRebuilds) {
  // Removing and re-adding a member restores the identical ring: every
  // point is a seeded mix with no history input.
  PlacementRing a = make_ring({4, 5, 6});
  PlacementRing b = make_ring({4, 5, 6});
  b.remove_node(5);
  b.add_node(5);
  for (std::uint64_t key = 0; key < 256; ++key)
    EXPECT_EQ(a.replicas_for(key, 2), b.replicas_for(key, 2)) << key;
}

TEST(PlacementRing, SeedChangesPlacements) {
  PlacementRing a = make_ring({4, 5, 6, 7}, 64, 1);
  PlacementRing b = make_ring({4, 5, 6, 7}, 64, 2);
  int differing = 0;
  for (std::uint64_t key = 0; key < 256; ++key)
    if (a.node_for(key) != b.node_for(key)) ++differing;
  EXPECT_GT(differing, 0);
}

TEST(PlacementRing, ReplicasAreDistinctAndPrimaryFirst) {
  PlacementRing ring = make_ring({4, 5, 6, 7, 8});
  for (std::uint64_t key = 0; key < 512; ++key) {
    const std::vector<int> reps = ring.replicas_for(key, 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0], ring.node_for(key));
    const std::set<int> distinct(reps.begin(), reps.end());
    EXPECT_EQ(distinct.size(), 3u) << "duplicate replica for key " << key;
  }
}

TEST(PlacementRing, WeightProportionality) {
  // A node of weight 3 among total weight 6 should own ~half the keys.
  // High vnodes smooth the arcs; the tolerance is generous because the
  // property is statistical, not exact.
  PlacementRing ring = make_ring({4, 5, 6}, 256);
  ring.remove_node(4);
  ring.add_node(4, 3);  // weights: 4 -> 3, 5 -> 1, 6 -> 1
  const int keys = 4096;
  std::map<int, int> owned;
  for (std::uint64_t key = 0; key < keys; ++key) ++owned[ring.node_for(key)];
  const double heavy = static_cast<double>(owned[4]) / keys;
  EXPECT_GT(heavy, 0.45);
  EXPECT_LT(heavy, 0.75);
  EXPECT_GT(owned[5], 0);
  EXPECT_GT(owned[6], 0);
}

TEST(PlacementRing, AddingOneNodeRemapsAboutOneNth) {
  // Minimal disruption: growing N -> N+1 equal-weight members steals
  // ~1/(N+1) of the circle; every key that moved must have moved TO the
  // new node (no third-party churn).
  const int kNodes = 8;
  std::vector<int> members;
  for (int n = 0; n < kNodes; ++n) members.push_back(10 + n);
  PlacementRing before = make_ring(members, 128);
  PlacementRing after = make_ring(members, 128);
  after.add_node(10 + kNodes);
  const int keys = 4096;
  int moved = 0;
  for (std::uint64_t key = 0; key < keys; ++key) {
    const int was = before.node_for(key);
    const int now = after.node_for(key);
    if (was == now) continue;
    ++moved;
    EXPECT_EQ(now, 10 + kNodes) << "key " << key << " churned to node "
                                << now << " instead of the new member";
  }
  const double frac = static_cast<double>(moved) / keys;
  EXPECT_GT(frac, 1.0 / (kNodes + 1) / 3);
  EXPECT_LT(frac, 3.0 / (kNodes + 1));
}

TEST(PlacementRing, RemovalOnlyRemapsTheRemovedNodesKeys) {
  std::vector<int> members = {4, 5, 6, 7, 8};
  PlacementRing before = make_ring(members, 128);
  PlacementRing after = make_ring(members, 128);
  after.remove_node(6);
  for (std::uint64_t key = 0; key < 2048; ++key) {
    const int was = before.node_for(key);
    const int now = after.node_for(key);
    if (was != 6) EXPECT_EQ(now, was) << "key " << key << " churned";
    else EXPECT_NE(now, 6);
  }
}

TEST(PlacementRing, ReplicaSetsMostlySurviveAddition) {
  // With replication, a grown membership may insert the new node into some
  // replica lists, but must never replace one surviving member with
  // another: the per-key set difference old \ new is only ever nodes the
  // new ring no longer has (none, on addition).
  std::vector<int> members = {4, 5, 6, 7};
  PlacementRing before = make_ring(members, 128);
  PlacementRing after = make_ring(members, 128);
  after.add_node(8);
  for (std::uint64_t key = 0; key < 1024; ++key) {
    const std::vector<int> was = before.replicas_for(key, 2);
    const std::vector<int> now = after.replicas_for(key, 2);
    const std::set<int> now_set(now.begin(), now.end());
    int lost = 0;
    for (const int n : was)
      if (!now_set.count(n)) ++lost;
    int gained_new = now_set.count(8) ? 1 : 0;
    // Each lost survivor must be explained by the new node displacing it.
    EXPECT_LE(lost, gained_new) << "key " << key;
  }
}

TEST(PlacementRing, MixMatchesSplitmix64Shape) {
  // Not a KAT against a reference vector — just the properties the ring
  // relies on: mix is deterministic and seed-sensitive.
  EXPECT_EQ(PlacementRing::mix(1, 2), PlacementRing::mix(1, 2));
  EXPECT_NE(PlacementRing::mix(1, 2), PlacementRing::mix(2, 2));
  EXPECT_NE(PlacementRing::mix(1, 2), PlacementRing::mix(1, 3));
}

}  // namespace
}  // namespace pfm
