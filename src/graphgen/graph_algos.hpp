// Centralized graph algorithms (harness-side only — distributed algorithms
// never call these; they exist to set up experiments and verify claims).

#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"

namespace ule {

inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFu;

/// BFS hop distances from src (kUnreachable where disconnected).
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId src);

/// Max finite distance from src; throws if the graph is disconnected.
std::uint32_t eccentricity(const Graph& g, NodeId src);

bool is_connected(const Graph& g);

/// Exact diameter; throws if the graph is disconnected.  An all-pairs BFS
/// run 64 sources per machine word: O(n*m) at worst, near O(n*m/64) when
/// the sources share their BFS trees, and O(n) for paths and cycles (max
/// degree <= 2), which have a closed form.
std::uint32_t diameter_exact(const Graph& g);

/// Hop distance between two nodes.
std::uint32_t hop_distance(const Graph& g, NodeId a, NodeId b);

}  // namespace ule
