// Greedy seed-selection engines over a RicPool.
//
// * greedy_c_hat — plain re-evaluating greedy on the NON-submodular ĉ_R.
//   Lazy (CELF) evaluation is unsound here: a node's marginal can GROW as
//   seeds accumulate (supermodular behavior near thresholds), so every
//   round re-scans all candidates. Ties on the primary objective are broken
//   by the ν marginal (progress toward thresholds), then appearance count —
//   without this, early rounds of the bounded-threshold case (h >= 2, where
//   no single node can cross any threshold) would pick arbitrarily.
// * celf_greedy_nu — CELF lazy greedy on the submodular ν_R (Lemma 3),
//   giving the classic (1 − 1/e) guarantee for the relaxed objective.
//
// Every engine accepts GreedyOptions to run its marginal-gain sweep on a
// thread pool. The parallel path reduces per-chunk winners under the exact
// serial tie-break order (a strict total order), so parallel and serial
// selection return BIT-IDENTICAL seed sets for any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "sampling/ric_pool.h"
#include "util/thread_pool.h"

namespace imc {

struct GreedyResult {
  std::vector<NodeId> seeds;
  double c_hat = 0.0;  // ĉ_R(seeds)
  double nu = 0.0;     // ν_R(seeds)
};

struct GreedyOptions {
  /// Run the per-round argmax sweep on a thread pool. Selection stays
  /// bit-identical to the serial path regardless of thread count.
  bool parallel = false;
  /// Pool for the sweep; nullptr selects default_pool().
  ThreadPool* pool = nullptr;
  /// Candidate sets smaller than this run serially even when `parallel`
  /// is set (chunking overhead dominates below it). Does not affect the
  /// selected seeds, only where the sweep executes.
  std::size_t min_parallel_candidates = 64;
  /// Number of sample slabs the parallel sample-major ĉ sweep splits the
  /// pool into (0 = one per worker thread; see
  /// RicPool::selection_shards). Per-slab gain rows are reduced in
  /// ascending slab order — a fixed accumulation sequence — so the value
  /// never affects the selected seeds; it exists so tests and the
  /// differential fuzzer can randomize the decomposition.
  std::size_t shards = 0;
};

/// Plain greedy on ĉ_R; O(k · Σ_v |touches(v)|).
[[nodiscard]] GreedyResult greedy_c_hat(const RicPool& pool, std::uint32_t k,
                                        const GreedyOptions& options = {});

/// CELF lazy greedy on ν_R; near-linear in practice. With `parallel` the
/// stale-entry refreshes at each round run as batched bursts on the pool.
[[nodiscard]] GreedyResult celf_greedy_nu(const RicPool& pool,
                                          std::uint32_t k,
                                          const GreedyOptions& options = {});

/// Plain (non-lazy) greedy on ν_R — ablation twin of celf_greedy_nu; the
/// two must pick identical seed sets (asserted in tests).
[[nodiscard]] GreedyResult plain_greedy_nu(const RicPool& pool,
                                           std::uint32_t k,
                                           const GreedyOptions& options = {});

}  // namespace imc
