#include "core/bt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "community/threshold_policy.h"
#include "core/brute_force.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "test_support.h"

namespace imc {
namespace {

TEST(Bt, SolvesGadget) {
  const test::NonSubmodularGadget gadget(0.5);
  RicPool pool(gadget.graph, gadget.communities);
  pool.grow(800, 1);
  const BtSolution solution = bt_solve(pool, 2);
  EXPECT_EQ(solution.seeds.size(), 2U);
  EXPECT_GT(solution.c_hat, 0.0);
  EXPECT_NE(solution.center, kInvalidNode);
  EXPECT_EQ(solution.seeds[0], solution.center);
  EXPECT_GT(solution.centers_tried, 0U);
}

TEST(Bt, RejectsThresholdAboveDepth) {
  const Graph graph = test::path_graph(6, 0.5);
  CommunitySet communities(6, {{0, 1, 2}});
  communities.set_threshold(0, 3);
  RicPool pool(graph, communities);
  pool.grow(50, 2);
  EXPECT_THROW((void)bt_solve(pool, 2), std::invalid_argument);  // default d = 2
  BtConfig config;
  config.depth = 3;
  EXPECT_NO_THROW((void)bt_solve(pool, 2, config));
}

TEST(Bt, RejectsBadArguments) {
  const test::NonSubmodularGadget gadget;
  RicPool pool(gadget.graph, gadget.communities);
  pool.grow(10, 3);
  EXPECT_THROW((void)bt_solve(pool, 0), std::invalid_argument);
  BtConfig config;
  config.depth = 0;
  EXPECT_THROW((void)bt_solve(pool, 1, config), std::invalid_argument);
}

TEST(Bt, Theorem4BoundHolds) {
  // ĉ(BT) >= (1 − 1/e)/k · ĉ(OPT) for h <= 2; property-checked against
  // brute force on random small instances.
  for (const std::uint64_t trial : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    Rng rng(trial * 11);
    BarabasiAlbertConfig config;
    config.nodes = 20;
    config.attach = 2;
    EdgeList edges = barabasi_albert_edges(config, rng);
    apply_uniform_weights(edges, 0.35);
    const Graph graph(config.nodes, edges);
    CommunitySet communities = test::chunk_communities(20, 4);
    apply_constant_thresholds(communities, 2);
    RicPool pool(graph, communities);
    pool.grow(200, trial);

    const std::uint32_t k = 3;
    const BtSolution bt = bt_solve(pool, k);
    const BruteForceResult opt = brute_force_maxr(pool, k, 50'000'000);
    const double bound =
        (1.0 - 1.0 / 2.718281828) / static_cast<double>(k) * opt.c_hat;
    EXPECT_GE(bt.c_hat + 1e-9, bound) << "trial " << trial;
  }
}

TEST(Bt, CandidateLimitShrinksWork) {
  const test::NonSubmodularGadget gadget(0.5);
  RicPool pool(gadget.graph, gadget.communities);
  pool.grow(400, 4);
  BtConfig limited;
  limited.candidate_limit = 1;
  const BtSolution solution = bt_solve(pool, 2, limited);
  EXPECT_EQ(solution.centers_tried, 1U);
}

TEST(Bt, DeadlineReturnsPartialResult) {
  Rng rng(5);
  BarabasiAlbertConfig config;
  config.nodes = 120;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  const Graph graph(config.nodes, edges);
  CommunitySet communities = test::chunk_communities(120, 4);
  apply_constant_thresholds(communities, 2);
  RicPool pool(graph, communities);
  pool.grow(1500, 5);

  BtConfig config_deadline;
  config_deadline.deadline_seconds = 1e-7;  // expire almost immediately
  const BtSolution solution = bt_solve(pool, 5, config_deadline);
  EXPECT_TRUE(solution.timed_out);
  EXPECT_FALSE(solution.seeds.empty());  // at least one center was tried
}

TEST(Bt, DepthThreeHandlesTripleThresholds) {
  // Tiny instance, h = 3: only BT(3) is admissible; it must find the
  // triple that covers the community.
  GraphBuilder builder;
  builder.reserve_nodes(6);
  builder.add_edge(3, 0, 1.0);
  builder.add_edge(4, 1, 1.0);
  builder.add_edge(5, 2, 1.0);
  const Graph graph = builder.build();
  CommunitySet communities(6, {{0, 1, 2}});
  communities.set_threshold(0, 3);
  RicPool pool(graph, communities);
  pool.grow(60, 6);

  BtConfig config;
  config.depth = 3;
  const BtSolution solution = bt_solve(pool, 3, config);
  EXPECT_EQ(solution.seeds.size(), 3U);
  EXPECT_DOUBLE_EQ(solution.c_hat, communities.total_benefit());
}

TEST(Bt, DepthThreeGoldenPin) {
  // Golden output of BT(3) on a fixed instance with thresholds 1..3: any
  // change to the recursion, its tie-breaks or its popcounts shows here.
  Rng rng(21);
  BarabasiAlbertConfig ba;
  ba.nodes = 60;
  ba.attach = 3;
  EdgeList edges = barabasi_albert_edges(ba, rng);
  apply_uniform_weights(edges, 0.15);
  const Graph graph(ba.nodes, edges);
  CommunitySet communities = test::chunk_communities(60, 6);
  for (CommunityId c = 0; c < communities.size(); ++c) {
    communities.set_threshold(c, c % 3 + 1);
  }
  RicPool pool(graph, communities);
  pool.grow(400, 9);

  BtConfig config;
  config.depth = 3;
  const BtSolution solution = bt_solve(pool, 4, config);
  EXPECT_EQ(solution.seeds, (std::vector<NodeId>{1, 7, 33, 49}));
  EXPECT_EQ(solution.center, 1U);
  EXPECT_EQ(solution.d_value, 219U);
  EXPECT_EQ(solution.centers_tried, 3600U);
}

TEST(Bt, CenterAppearsInEverySolution) {
  const test::NonSubmodularGadget gadget(0.4);
  RicPool pool(gadget.graph, gadget.communities);
  pool.grow(300, 7);
  for (const std::uint32_t k : {1U, 2U, 3U}) {
    const BtSolution solution = bt_solve(pool, k);
    ASSERT_FALSE(solution.seeds.empty());
    EXPECT_EQ(solution.seeds[0], solution.center);
    EXPECT_LE(solution.seeds.size(), k);
  }
}

TEST(Bt, AlphaShrinksWithDepthAndK) {
  BtSolver depth2{};
  BtConfig deep_config;
  deep_config.depth = 3;
  BtSolver depth3(deep_config);
  const test::NonSubmodularGadget gadget;
  RicPool pool(gadget.graph, gadget.communities);
  pool.grow(10, 8);
  EXPECT_GT(depth2.alpha(pool, 5), depth3.alpha(pool, 5));
  EXPECT_GT(depth2.alpha(pool, 2), depth2.alpha(pool, 10));
}

}  // namespace
}  // namespace imc
