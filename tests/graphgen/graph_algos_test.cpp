#include "graphgen/graph_algos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graphgen/generators.hpp"
#include "scenario/registry.hpp"

namespace ule {
namespace {

// Reference for diameter_exact: the plain all-pairs loop, one BFS per node.
std::uint32_t all_pairs_diameter(const Graph& g) {
  std::uint32_t best = 0;
  for (NodeId u = 0; u < g.n(); ++u) best = std::max(best, eccentricity(g, u));
  return best;
}

TEST(GraphAlgos, BfsDistancesOnPath) {
  const Graph g = make_path(6);
  const auto d = bfs_distances(g, 0);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(d[u], u);
}

TEST(GraphAlgos, EccentricityCenterVsEnd) {
  const Graph g = make_path(9);
  EXPECT_EQ(eccentricity(g, 0), 8u);
  EXPECT_EQ(eccentricity(g, 4), 4u);
}

TEST(GraphAlgos, HopDistance) {
  const Graph g = make_cycle(12);
  EXPECT_EQ(hop_distance(g, 0, 6), 6u);
  EXPECT_EQ(hop_distance(g, 0, 11), 1u);
}

TEST(GraphAlgos, ConnectivityDetectsDisconnected) {
  // Two disjoint edges (the "illegal experiment" graph G'^2 from the
  // Lemma 3.5 proof is exactly such a disconnected union).
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(is_connected(g));
}

TEST(GraphAlgos, EccentricityThrowsOnDisconnected) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(eccentricity(g, 0), std::runtime_error);
}

TEST(GraphAlgos, DiameterMatchesAllPairsOnEveryFamily) {
  // max_n values straddle the 64-source batch edges of the word-parallel BFS.
  const std::size_t max_ns[] = {1, 2, 3, 63, 64, 65, 129, 300};
  for (const FamilyInfo& fam : default_families().all()) {
    for (const std::size_t max_n : max_ns) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 1000 + max_n);
        const ScenarioParams params = fam.draw(rng, max_n);
        const Graph g = fam.build(params, rng);
        EXPECT_EQ(diameter_exact(g), all_pairs_diameter(g))
            << fam.name << " n=" << g.n() << " m=" << g.m()
            << " seed=" << seed;
      }
    }
    // Draws rarely land exactly on a batch edge: build single-size families
    // there directly.
    if (fam.params.size() != 1 || fam.params[0].name != "n") continue;
    for (const std::uint64_t n : {1, 2, 3, 63, 64, 65, 127, 128, 129}) {
      if (n < fam.params[0].lo || n > fam.params[0].hi) continue;
      Rng rng(n);
      const Graph g = fam.build({{"n", n}}, rng);
      EXPECT_EQ(diameter_exact(g), all_pairs_diameter(g))
          << fam.name << " n=" << n;
    }
  }
}

TEST(GraphAlgos, DiameterOfPathsAndCycles) {
  EXPECT_EQ(diameter_exact(make_path(1)), 0u);
  EXPECT_EQ(diameter_exact(make_path(2)), 1u);
  EXPECT_EQ(diameter_exact(make_cycle(3)), 1u);
  for (const std::size_t n : {4, 5, 64, 65, 130, 131}) {
    EXPECT_EQ(diameter_exact(make_cycle(n)), all_pairs_diameter(make_cycle(n)))
        << "cycle n=" << n;
    EXPECT_EQ(diameter_exact(make_path(n)), all_pairs_diameter(make_path(n)))
        << "path n=" << n;
  }
}

TEST(GraphAlgos, DiameterEndpointsInPartialLastBatch) {
  // Star 0..127 with pendant 128 on leaf 1 and pendant 129 on leaf 2: the
  // only pair at distance 4 is (128, 129), both sources of the last batch.
  std::vector<std::pair<NodeId, NodeId>> e{{1, 128}, {2, 129}};
  for (NodeId v = 1; v < 128; ++v) e.emplace_back(0, v);
  const Graph g = Graph::from_edges(130, e);
  EXPECT_EQ(all_pairs_diameter(g), 4u);
  EXPECT_EQ(diameter_exact(g), 4u);
}

TEST(GraphAlgos, DiameterThrowsOnDisconnected) {
  // Max degree <= 2 with m == n and with m == n - 1: the edge count alone
  // must not be mistaken for a cycle or a path.
  const Graph two_triangles =
      Graph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_THROW(diameter_exact(two_triangles), std::runtime_error);
  const Graph triangle_plus_isolated =
      Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_THROW(diameter_exact(triangle_plus_isolated), std::runtime_error);

  // Word-parallel path: the unreachable node 129 is a source only in the
  // third, partial batch of 64.
  std::vector<std::pair<NodeId, NodeId>> star;
  for (NodeId v = 1; v < 129; ++v) star.emplace_back(0, v);
  EXPECT_THROW(diameter_exact(Graph::from_edges(130, star)),
               std::runtime_error);
  // Two stars split at node 64, the first node of the second batch.
  std::vector<std::pair<NodeId, NodeId>> split;
  for (NodeId v = 1; v < 64; ++v) split.emplace_back(0, v);
  for (NodeId v = 65; v < 130; ++v) split.emplace_back(64, v);
  EXPECT_THROW(diameter_exact(Graph::from_edges(130, split)),
               std::runtime_error);
}

}  // namespace
}  // namespace ule
