#include "core/ubg.h"

namespace imc {

namespace {

/// Line 3 of Alg. 2: keep whichever seed set scores higher under ĉ_R.
void pick_better(UbgSolution& solution) {
  solution.sandwich_ratio =
      solution.from_nu.nu > 0.0
          ? solution.from_nu.c_hat / solution.from_nu.nu
          : 0.0;
  if (solution.from_c_hat.c_hat >= solution.from_nu.c_hat) {
    solution.seeds = solution.from_c_hat.seeds;
    solution.c_hat = solution.from_c_hat.c_hat;
  } else {
    solution.seeds = solution.from_nu.seeds;
    solution.c_hat = solution.from_nu.c_hat;
  }
}

}  // namespace

UbgSolution ubg_solve(const RicPool& pool, std::uint32_t k,
                      const GreedyOptions& options) {
  UbgSolution solution;
  solution.from_c_hat = greedy_c_hat(pool, k, options);
  solution.from_nu = celf_greedy_nu(pool, k, options);
  pick_better(solution);
  return solution;
}

}  // namespace imc
