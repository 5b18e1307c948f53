#include "graphgen/graph_algos.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ule {

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId src) {
  std::vector<std::uint32_t> dist(g.n(), kUnreachable);
  std::vector<NodeId> frontier{src}, next;
  dist[src] = 0;
  std::uint32_t d = 0;
  while (!frontier.empty()) {
    ++d;
    next.clear();
    for (const NodeId u : frontier) {
      for (const auto& he : g.ports(u)) {
        if (dist[he.to] == kUnreachable) {
          dist[he.to] = d;
          next.push_back(he.to);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::uint32_t eccentricity(const Graph& g, NodeId src) {
  const auto dist = bfs_distances(g, src);
  std::uint32_t ecc = 0;
  for (const std::uint32_t d : dist) {
    if (d == kUnreachable) throw std::runtime_error("graph is disconnected");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

bool is_connected(const Graph& g) {
  if (g.n() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

std::uint32_t diameter_exact(const Graph& g) {
  const std::size_t n = g.n();
  if (n == 0) return 0;
  // A connected graph of max degree <= 2 is a path or a cycle, where
  // word-parallel BFS shares no work; both have a closed form.
  if (g.max_degree() <= 2) {
    if (!is_connected(g)) throw std::runtime_error("graph is disconnected");
    return static_cast<std::uint32_t>(g.m() == n ? n / 2 : n - 1);
  }

  // Word-parallel multi-source BFS (Then et al., PVLDB 2014): sources
  // s0..s0+63 each own one bit of a uint64_t per node, so one sweep over a
  // node's neighbours advances every source that reached it this level.
  std::vector<std::size_t> off(n + 1, 0);
  std::vector<NodeId> nbr;
  nbr.reserve(2 * g.m());
  for (NodeId u = 0; u < n; ++u) {
    for (const auto& he : g.ports(u)) nbr.push_back(he.to);
    off[u + 1] = nbr.size();
  }

  std::vector<std::uint64_t> seen(n), frontier(n), next(n);
  std::vector<NodeId> active, reached_now;
  std::uint32_t best = 0;
  for (std::size_t s0 = 0; s0 < n; s0 += 64) {
    const std::size_t width = std::min<std::size_t>(64, n - s0);
    std::fill(seen.begin(), seen.end(), 0);
    active.clear();
    for (std::size_t i = 0; i < width; ++i) {
      const auto s = static_cast<NodeId>(s0 + i);
      seen[s] = frontier[s] = std::uint64_t{1} << i;
      active.push_back(s);
    }
    // (source, node) pairs reached so far; width * n iff connected.
    std::size_t reached = width;
    std::uint32_t depth = 0;
    while (!active.empty() && reached < width * n) {
      reached_now.clear();
      for (const NodeId u : active) {
        const std::uint64_t f = frontier[u];
        for (std::size_t k = off[u]; k < off[u + 1]; ++k) {
          const NodeId v = nbr[k];
          const std::uint64_t fresh = f & ~seen[v];
          if (fresh == 0) continue;
          if (next[v] == 0) reached_now.push_back(v);
          next[v] |= fresh;
        }
      }
      for (const NodeId u : active) frontier[u] = 0;
      for (const NodeId v : reached_now) {
        frontier[v] = next[v];
        seen[v] |= next[v];
        reached += static_cast<std::size_t>(std::popcount(next[v]));
        next[v] = 0;
      }
      if (!reached_now.empty()) ++depth;
      active.swap(reached_now);
    }
    if (reached < width * n) throw std::runtime_error("graph is disconnected");
    for (const NodeId u : active) frontier[u] = 0;
    best = std::max(best, depth);
  }
  return best;
}

std::uint32_t hop_distance(const Graph& g, NodeId a, NodeId b) {
  return bfs_distances(g, a)[b];
}

}  // namespace ule
