#include "sampling/ric_pool.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "community/threshold_policy.h"
#include "diffusion/monte_carlo.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "test_support.h"

namespace imc {
namespace {

Graph make_dataset_like_graph() {
  Rng rng(123);
  BarabasiAlbertConfig config;
  config.nodes = 80;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  return Graph(config.nodes, edges);
}

TEST(RicPool, GrowAndIndexConsistency) {
  const Graph graph = test::cycle_graph(12, 0.5);
  const CommunitySet communities = test::chunk_communities(12, 3);
  RicPool pool(graph, communities);
  pool.grow(300, /*seed=*/1);
  ASSERT_EQ(pool.size(), 300U);
  // Inverted index agrees with per-sample touching lists.
  for (std::uint32_t g = 0; g < pool.size(); ++g) {
    for (const auto& [node, mask] : pool.sample(g).touching) {
      bool found = false;
      for (const RicPool::Touch& touch : pool.touches_of(node)) {
        if (touch.sample == g) {
          EXPECT_EQ(touch.mask, mask);
          found = true;
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(RicPool, GrowthIsDeterministicAndChunkingInvariant) {
  const Graph graph = test::cycle_graph(10, 0.4);
  const CommunitySet communities = test::chunk_communities(10, 2);
  RicPool once(graph, communities);
  once.grow(64, 7, /*parallel=*/true);
  RicPool twice(graph, communities);
  twice.grow(40, 7, /*parallel=*/false);
  twice.grow(24, 7, /*parallel=*/false);
  ASSERT_EQ(once.size(), twice.size());
  for (std::uint32_t g = 0; g < once.size(); ++g) {
    EXPECT_EQ(once.sample(g).community, twice.sample(g).community);
    EXPECT_EQ(once.sample(g).touching, twice.sample(g).touching);
  }
}

TEST(RicPool, CHatMatchesManualCount) {
  const Graph graph = test::path_graph(6, 1.0);
  CommunitySet communities(6, {{2}, {5}});
  RicPool pool(graph, communities);
  pool.grow(500, 3);
  // Seeding node 0 reaches member 2 (certain path) but that's it for C0;
  // node 0 also reaches 5. All samples are influenced by {0}.
  const std::vector<NodeId> seeds{0};
  EXPECT_EQ(pool.influenced_count(seeds), pool.size());
  EXPECT_DOUBLE_EQ(pool.c_hat(seeds), communities.total_benefit());
}

TEST(RicPool, Lemma1UnbiasedAgainstForwardMonteCarlo) {
  // ĉ_R(S) must estimate the same c(S) as forward IC simulation.
  Rng gen_rng(11);
  SbmConfig sbm;
  sbm.nodes = 60;
  sbm.blocks = 6;
  sbm.p_in = 0.3;
  sbm.p_out = 0.02;
  EdgeList edges = sbm_edges(sbm, gen_rng);
  apply_uniform_weights(edges, 0.15);
  const Graph graph(sbm.nodes, edges);

  CommunitySet communities = test::chunk_communities(60, 6);
  apply_population_benefits(communities);
  apply_fraction_thresholds(communities, 0.5);

  RicPool pool(graph, communities);
  pool.grow(60000, 5);

  MonteCarloOptions mc;
  mc.simulations = 60000;
  const std::vector<NodeId> seeds{0, 13, 27};
  const double forward = mc_expected_benefit(graph, communities, seeds, mc);
  const double reverse = pool.c_hat(seeds);
  EXPECT_NEAR(reverse, forward, std::max(0.5, forward * 0.06));
}

TEST(RicPool, NuUpperBoundsCHat) {
  const Graph graph = make_dataset_like_graph();
  CommunitySet communities = test::chunk_communities(graph.node_count(), 4);
  apply_constant_thresholds(communities, 2);
  RicPool pool(graph, communities);
  pool.grow(2000, 9);
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const auto seeds = rng.sample_without_replacement(
        graph.node_count(), 1 + static_cast<std::uint32_t>(rng.below(8)));
    EXPECT_GE(pool.nu(seeds) + 1e-9, pool.c_hat(seeds));
  }
}

TEST(RicPool, NuEqualsCHatWhenThresholdsAreOne) {
  const Graph graph = make_dataset_like_graph();
  CommunitySet communities = test::chunk_communities(graph.node_count(), 4);
  // default thresholds are 1
  RicPool pool(graph, communities);
  pool.grow(1500, 17);
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const auto seeds = rng.sample_without_replacement(graph.node_count(), 5);
    EXPECT_NEAR(pool.nu(seeds), pool.c_hat(seeds), 1e-9);
  }
}

TEST(RicPool, CommunityFrequencyCountsSources) {
  const Graph graph = test::path_graph(8, 0.3);
  CommunitySet communities = test::chunk_communities(8, 4);
  communities.set_benefit(0, 9.0);  // heavily favor C0 in ρ
  communities.set_benefit(1, 1.0);
  RicPool pool(graph, communities);
  pool.grow(2000, 21);
  EXPECT_EQ(pool.community_frequency(0) + pool.community_frequency(1),
            pool.size());
  EXPECT_GT(pool.community_frequency(0), pool.community_frequency(1) * 5);
}

TEST(RicPool, CommunityFrequencyCountersMatchRecount) {
  // The O(1) counters maintained during growth must agree with a full
  // recount of the sample list, across serial and parallel growth rounds.
  const Graph graph = test::path_graph(8, 0.3);
  CommunitySet communities = test::chunk_communities(8, 4);
  RicPool pool(graph, communities);
  pool.grow(500, 31);
  pool.grow(700, 31);  // second round exercises incremental growth
  pool.grow(9, 31, /*parallel=*/false);

  std::vector<std::uint32_t> recount(communities.size(), 0);
  for (const CommunityId c : pool.source_communities()) ++recount[c];
  ASSERT_EQ(pool.community_frequencies().size(), recount.size());
  for (CommunityId c = 0; c < communities.size(); ++c) {
    EXPECT_EQ(pool.community_frequency(c), recount[c]) << "community " << c;
  }
  // Out-of-range community ids keep reporting zero, not throwing.
  EXPECT_EQ(pool.community_frequency(communities.size() + 5), 0U);
}

TEST(RicPool, EmptySeedSetScoresZero) {
  const Graph graph = test::path_graph(4, 0.5);
  const CommunitySet communities = test::chunk_communities(4, 2);
  RicPool pool(graph, communities);
  pool.grow(100, 23);
  const std::vector<NodeId> empty;
  EXPECT_DOUBLE_EQ(pool.c_hat(empty), 0.0);
  EXPECT_DOUBLE_EQ(pool.nu(empty), 0.0);
  EXPECT_EQ(pool.influenced_count(empty), 0U);
}

TEST(RicPool, EmptyPoolScoresZero) {
  const Graph graph = test::path_graph(4, 0.5);
  const CommunitySet communities = test::chunk_communities(4, 2);
  RicPool pool(graph, communities);
  const std::vector<NodeId> seeds{0};
  EXPECT_DOUBLE_EQ(pool.c_hat(seeds), 0.0);
  EXPECT_DOUBLE_EQ(pool.nu(seeds), 0.0);
}

TEST(RicPool, EmptyCommunitiesAreRejectedBeforeTheyReachAPool) {
  // Pools never have to guard against population-zero communities:
  // CommunitySet refuses to construct them in the first place.
  EXPECT_THROW(CommunitySet(4, {{0, 1}, {}}), std::invalid_argument);
}

}  // namespace
}  // namespace imc
