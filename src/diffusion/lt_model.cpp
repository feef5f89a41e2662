#include "diffusion/lt_model.h"

#include <algorithm>
#include <stdexcept>

namespace imc {

bool lt_in_weights_valid(const Graph& graph, NodeId v) {
  double total = 0.0;
  for (const Neighbor& nb : graph.in_neighbors(v)) {
    total += static_cast<double>(nb.weight);
  }
  // Edge weights are stored as float; allow float-level rounding slack
  // (weighted cascade sums to exactly 1 in real arithmetic).
  return !(total > 1.0 + 1e-5);
}

bool lt_weights_valid(const Graph& graph) {
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (!lt_in_weights_valid(graph, v)) return false;
  }
  return true;
}

std::vector<NodeId> simulate_lt(const Graph& graph,
                                std::span<const NodeId> seeds, Rng& rng) {
  const NodeId n = graph.node_count();
  if (!lt_weights_valid(graph)) {
    throw std::invalid_argument(
        "simulate_lt: incoming weights must sum to <= 1 per node");
  }
  std::vector<std::uint8_t> active(n, 0);
  std::vector<double> incoming(n, 0.0);   // active in-weight accumulated
  std::vector<double> threshold(n, 2.0);  // lazily drawn on first touch
  std::vector<NodeId> frontier;

  const auto activate = [&](NodeId v) {
    active[v] = 1;
    frontier.push_back(v);
  };
  for (const NodeId s : seeds) {
    if (s >= n) throw std::out_of_range("simulate_lt: seed out of range");
    if (!active[s]) activate(s);
  }

  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (const Neighbor& nb : graph.out_neighbors(u)) {
      const NodeId v = nb.node;
      if (active[v]) continue;
      if (threshold[v] > 1.0) threshold[v] = rng.uniform();
      incoming[v] += static_cast<double>(nb.weight);
      if (incoming[v] >= threshold[v]) activate(v);
    }
  }

  std::vector<NodeId> result;
  for (NodeId v = 0; v < n; ++v) {
    if (active[v]) result.push_back(v);
  }
  return result;
}

}  // namespace imc
