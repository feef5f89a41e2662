// Upper Bound Greedy (paper Alg. 2) — the Sandwich Approximation solver.
//
// Runs greedy twice: once on the non-submodular objective ĉ_R, once on its
// tight submodular upper bound ν_R (Lemma 3; equality when all h_g = 1,
// Lemma 4), and returns whichever seed set scores higher under ĉ_R. The
// data-dependent guarantee is (ĉ_R(S_ν) / ν_R(S_ν)) · (1 − 1/e)
// (Theorem 2); `sandwich_ratio` of the result reports that leading factor.
#pragma once

#include "core/greedy.h"
#include "core/maxr_solver.h"

namespace imc {

struct UbgSolution : MaxrSolution {
  double sandwich_ratio = 0.0;  // ĉ_R(S_ν) / ν_R(S_ν), the Fig. 8 quantity
  GreedyResult from_c_hat;      // S_c of Alg. 2
  GreedyResult from_nu;         // S_ν of Alg. 2
};

/// `options` drives both greedy sweeps (serial or deterministic-parallel).
[[nodiscard]] UbgSolution ubg_solve(const RicPool& pool, std::uint32_t k,
                                    const GreedyOptions& options = {});

class UbgSolver final : public MaxrSolver {
 public:
  UbgSolver() = default;
  explicit UbgSolver(const GreedyOptions& options) : options_(options) {}
  [[nodiscard]] std::string name() const override { return "UBG"; }
  /// α of the ν-side analysis: 1 − 1/e (the data-dependent ratio is
  /// reported per solve; see §V-B "How to integrate the MAXR algorithms").
  [[nodiscard]] double alpha(const RicPool&, std::uint32_t) const override {
    return 1.0 - 1.0 / 2.718281828459045;
  }
  [[nodiscard]] MaxrSolution solve(const RicPool& pool,
                                   std::uint32_t k) const override {
    return ubg_solve(pool, k, options_);
  }

 private:
  GreedyOptions options_;
};

}  // namespace imc
