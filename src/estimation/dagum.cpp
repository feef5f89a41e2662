#include "estimation/dagum.h"

#include <cmath>
#include <vector>

#include "estimation/concentration.h"
#include "sampling/ric_sample.h"
#include "util/rng.h"

namespace imc {

namespace {

DagumEstimate dagum_estimate_impl(const Graph& graph,
                                  const CommunitySet& communities,
                                  std::span<const NodeId> seeds,
                                  const DagumOptions& options,
                                  const ExecutionContext* context) {
  DagumEstimate result;
  if (communities.empty()) return result;

  const double lambda_prime =
      dagum_lambda_prime(options.eps_prime, options.delta_prime);
  const double b = communities.total_benefit();

  // Dense seed bitmap for O(1) membership tests inside the sample scan.
  std::vector<std::uint8_t> is_seed(graph.node_count(), 0);
  for (const NodeId v : seeds) is_seed.at(v) = 1;

  RicSampler sampler(graph, communities, options.model);
  Rng rng(options.seed);
  RicSampler::TouchArena touching;  // reused by every draw

  std::uint64_t influenced = 0;
  for (std::uint64_t t = 1; t <= options.max_samples; ++t) {
    // Coarse cooperative polling: one stop_requested() check per 64 draws
    // keeps the overhead invisible next to the sample generation itself.
    if (context != nullptr && t % 64 == 0 && context->stop_requested()) {
      result.reached_deadline = true;
      break;
    }
    touching.clear();
    const RicSampleMeta g = sampler.generate_into(rng, touching);
    // tmp of Alg. 6: members of C_g reached by the seed set.
    std::uint64_t covered = 0;
    for (const auto& [node, mask] : touching) {
      if (is_seed[node]) covered |= mask;
    }
    if (static_cast<std::uint32_t>(__builtin_popcountll(covered)) >=
        g.threshold) {
      ++influenced;
    }
    result.samples = t;
    if (static_cast<double>(influenced) >= lambda_prime) {
      result.value = b * lambda_prime / static_cast<double>(t);
      result.converged = true;
      return result;
    }
  }
  // T_max exhausted (or the deadline hit): report the plain unbiased
  // running estimate.
  result.value = result.samples == 0
                     ? 0.0
                     : b * static_cast<double>(influenced) /
                           static_cast<double>(result.samples);
  result.converged = false;
  return result;
}

}  // namespace

DagumEstimate dagum_estimate_benefit(const Graph& graph,
                                     const CommunitySet& communities,
                                     std::span<const NodeId> seeds,
                                     const DagumOptions& options) {
  return dagum_estimate_impl(graph, communities, seeds, options, nullptr);
}

DagumEstimate dagum_estimate_benefit(const Graph& graph,
                                     const CommunitySet& communities,
                                     std::span<const NodeId> seeds,
                                     const DagumOptions& options,
                                     const ExecutionContext& context) {
  return dagum_estimate_impl(graph, communities, seeds, options, &context);
}

}  // namespace imc
