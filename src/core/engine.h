// ImcEngine — the staged IMCAF driver (paper Alg. 5) behind imcaf_solve.
//
// The engine owns the RIC sample pool and runs the SSA-style doubling loop
// as three cooperating layers:
//   sampling   — RicPool growth (and in-place delta repair);
//   core       — the MAXR solver, run cold on each stage's pool, as Alg. 5
//                does (no solver state crosses a stage boundary);
//   estimation — the stop-stage Dagum Estimate, deadline-aware through
//                the ExecutionContext.
// Keeping the pool in the engine (instead of a local of imcaf_solve) is
// what enables solve_many: several (k, solver) queries amortize one
// sample pool, each paying only the growth its own stop stages demand.
//
// Determinism: for a fresh engine, solve(k, solver) reproduces the
// pre-engine imcaf_solve bit-for-bit — same seed derivations, same growth
// schedule, same stage math; golden pins in tests/core/engine_test.cpp
// hold the recorded outputs. The ExecutionContext adds only *optional*
// behavior (deadline, cancellation, metrics) that is inert by default.
//
// Schedule (DESIGN.md §15): one serial stage loop — grow, solve, estimate,
// then grow at the stage boundary. Parallelism lives inside the layers
// (parallel growth, parallel selection), never across them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "community/community_set.h"
#include "core/imcaf.h"
#include "core/maxr_solver.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "sampling/pool_snapshot.h"
#include "sampling/ric_pool.h"
#include "util/context.h"

namespace imc {

/// One (k, solver) query for ImcEngine::solve_many. The solver pointer is
/// borrowed and must outlive the call.
struct EngineQuery {
  std::uint32_t k = 0;
  const MaxrSolver* solver = nullptr;
};

class ImcEngine {
 public:
  /// Throws std::invalid_argument on empty communities. The graph,
  /// community set, and context-referenced objects are borrowed and must
  /// outlive the engine.
  ImcEngine(const Graph& graph, const CommunitySet& communities,
            ImcafConfig config = {},
            ExecutionContext context = ExecutionContext{});

  /// Runs Alg. 5 for one query on the shared pool. Throws
  /// std::invalid_argument on k = 0 or k > |V|. The pool keeps whatever
  /// size the run grew it to; a later query starts from there (its stage-1
  /// solve simply sees a larger |R|).
  [[nodiscard]] ImcafResult solve(std::uint32_t k, const MaxrSolver& solver);

  /// Runs the queries in order against the shared pool; each query is an
  /// independent solve() that starts from whatever size the pool reached.
  [[nodiscard]] std::vector<ImcafResult> solve_many(
      std::span<const EngineQuery> queries);

  /// Replaces the engine's pool with the binary v3 snapshot at `path`,
  /// attached zero-copy via attach_ric_pool_snapshot (sampling/
  /// pool_snapshot.h). The snapshot must have been saved against the SAME
  /// graph and community structure (fingerprint-checked) and the same
  /// diffusion model as config().model. Payloads are checksum- and
  /// invariant-verified by default; pass SnapshotTrust::kTrustPayload for
  /// files this host wrote to keep attach cost independent of pool size.
  /// The first post-attach growth copies the arenas into heap slabs.
  /// Throws std::runtime_error / std::invalid_argument on any mismatch;
  /// the current pool is untouched on failure.
  void attach_pool(const std::string& path,
                   SnapshotTrust trust = SnapshotTrust::kVerifyPayload);

  /// Streaming update: mutates the graph/community structure through the
  /// free apply_delta(), then repairs the shared pool in place with
  /// RicPool::invalidate_and_repair so the next solve() sees a pool
  /// bit-identical to a from-scratch rebuild on the mutated inputs.
  /// `graph` and `communities` MUST be the exact objects this engine was
  /// constructed over (identity-checked; the engine holds const views, so
  /// the caller supplies the mutable aliases) — std::invalid_argument
  /// otherwise, nothing mutated. A repair bumps PoolEpoch::repairs (the
  /// snapshot header persists it). Strong guarantee: every batch
  /// the pool repair could not serve is rejected before the first write —
  /// invalid edges or moves, a community grown past 64 members, and under
  /// LT a node's in-weights summing past 1 — so on std::invalid_argument
  /// the graph, the communities and the pool are all unchanged. Not
  /// thread-safe against a concurrent solve(). Returns the repair
  /// statistics (samples regenerated vs pool size).
  RicPool::RepairStats apply_delta(Graph& graph, CommunitySet& communities,
                                   const GraphDelta& delta);

  [[nodiscard]] const RicPool& pool() const noexcept { return pool_; }
  [[nodiscard]] const ImcafConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ExecutionContext& context() const noexcept {
    return context_;
  }

 private:
  /// All growth funnels through here: throughput accounting + debug log.
  /// Returns the wall seconds the growth took.
  double timed_grow(std::uint64_t count, ImcafResult& result);

  const Graph* graph_;
  const CommunitySet* communities_;
  ImcafConfig config_;
  ExecutionContext context_;
  RicPool pool_;
};

}  // namespace imc
