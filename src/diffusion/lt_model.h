// Linear Threshold forward simulation. The paper notes (§II-A) that all of
// its machinery extends from IC to LT; we provide the simulator so the
// library supports both models end-to-end.
//
// Each node v draws a threshold θ_v ~ U[0,1] per realization and activates
// once the summed weight of its active in-neighbors reaches θ_v. For LT to
// be a proper distribution the incoming weights of every node must sum to
// at most 1 — the weighted-cascade scheme (1/indeg) satisfies this exactly.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/rng.h"

namespace imc {

/// One LT realization; returns the final active set, sorted.
/// Throws std::invalid_argument if some node's in-weights sum to > 1 (up
/// to float-precision slack; weights are stored as float).
[[nodiscard]] std::vector<NodeId> simulate_lt(const Graph& graph,
                                              std::span<const NodeId> seeds,
                                              Rng& rng);

/// Validates the LT weight precondition (Σ_in w <= 1 per node).
[[nodiscard]] bool lt_weights_valid(const Graph& graph);

/// The same precondition for one node.
[[nodiscard]] bool lt_in_weights_valid(const Graph& graph, NodeId v);

}  // namespace imc
