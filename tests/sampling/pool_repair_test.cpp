// RicPool::invalidate_and_repair (DESIGN.md §16): a repaired pool must be
// bit-identical to rebuilding from scratch on the mutated graph/community
// structures with the same seed — arenas, metadata, counters and the CSR
// index alike — while regenerating only the affected samples. Also covers
// the epoch bump (carrier invalidation), the snapshot interplay and
// ImcEngine::apply_delta end to end, including its strong guarantee.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "community/threshold_policy.h"
#include "core/engine.h"
#include "core/ubg.h"
#include "graph/delta.h"
#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "graph/weights.h"
#include "sampling/pool_snapshot.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

Graph make_graph(std::uint64_t seed = 77, NodeId nodes = 120) {
  Rng rng(seed);
  BarabasiAlbertConfig config;
  config.nodes = nodes;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  return Graph(config.nodes, edges);
}

CommunitySet make_communities(NodeId nodes = 120, std::uint32_t h = 2) {
  CommunitySet communities = test::chunk_communities(nodes, 6);
  apply_constant_thresholds(communities, h);
  apply_population_benefits(communities);
  return communities;
}

/// Bit-for-bit pool equality over every arena the snapshot persists.
void expect_same_pool(const RicPool& a, const RicPool& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto a_thresholds = a.thresholds();
  const auto b_thresholds = b.thresholds();
  const auto a_sources = a.source_communities();
  const auto b_sources = b.source_communities();
  for (std::uint64_t g = 0; g < a.size(); ++g) {
    ASSERT_EQ(a_thresholds[g], b_thresholds[g]) << "threshold of " << g;
    ASSERT_EQ(a_sources[g], b_sources[g]) << "source of " << g;
  }
  const auto a_offsets = a.sample_offsets();
  const auto b_offsets = b.sample_offsets();
  ASSERT_EQ(a_offsets.size(), b_offsets.size());
  for (std::size_t i = 0; i < a_offsets.size(); ++i) {
    ASSERT_EQ(a_offsets[i], b_offsets[i]) << "sample offset " << i;
  }
  const auto a_pairs = a.sample_arena();
  const auto b_pairs = b.sample_arena();
  ASSERT_EQ(a_pairs.size(), b_pairs.size());
  for (std::size_t i = 0; i < a_pairs.size(); ++i) {
    ASSERT_EQ(a_pairs[i].first, b_pairs[i].first) << "pair node " << i;
    ASSERT_EQ(a_pairs[i].second, b_pairs[i].second) << "pair mask " << i;
  }
  const auto a_freq = a.community_frequencies();
  const auto b_freq = b.community_frequencies();
  ASSERT_EQ(a_freq.size(), b_freq.size());
  for (std::size_t c = 0; c < a_freq.size(); ++c) {
    ASSERT_EQ(a_freq[c], b_freq[c]) << "community frequency " << c;
  }
  const auto a_toff = a.touch_offsets();
  const auto b_toff = b.touch_offsets();
  ASSERT_EQ(a_toff.size(), b_toff.size());
  for (std::size_t i = 0; i < a_toff.size(); ++i) {
    ASSERT_EQ(a_toff[i], b_toff[i]) << "touch offset " << i;
  }
  const auto a_touch = a.touch_arena();
  const auto b_touch = b.touch_arena();
  ASSERT_EQ(a_touch.size(), b_touch.size());
  for (std::size_t i = 0; i < a_touch.size(); ++i) {
    ASSERT_EQ(a_touch[i].sample, b_touch[i].sample) << "touch " << i;
    ASSERT_EQ(a_touch[i].threshold, b_touch[i].threshold) << "touch " << i;
    ASSERT_EQ(a_touch[i].mask, b_touch[i].mask) << "touch " << i;
  }
}

constexpr std::uint64_t kSeed = 2024;
constexpr std::uint64_t kPoolSize = 1200;

TEST(PoolRepair, EdgeDeltaRepairEqualsRebuild) {
  Graph graph = make_graph();
  CommunitySet communities = make_communities();
  RicPool pool(graph, communities);
  pool.grow(kPoolSize, kSeed, /*parallel=*/false);

  GraphDelta delta;
  delta.upsert_edge(0, 57, 0.4).remove_edge(1, 0).upsert_edge(90, 3, 0.15);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  const RicPool::RepairStats stats =
      pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  EXPECT_EQ(stats.total, kPoolSize);
  EXPECT_GT(stats.repaired, 0U);
  EXPECT_LT(stats.repaired, kPoolSize);  // most samples must survive

  RicPool rebuilt(graph, communities);
  rebuilt.grow(kPoolSize, kSeed, /*parallel=*/false);
  expect_same_pool(pool, rebuilt);
}

TEST(PoolRepair, MembershipMoveRepairEqualsRebuild) {
  Graph graph = make_graph();
  CommunitySet communities = make_communities();
  RicPool pool(graph, communities);
  pool.grow(kPoolSize, kSeed, /*parallel=*/false);

  GraphDelta delta;
  delta.move_member(7, 5).move_member(30, 0);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  EXPECT_TRUE(effects.changed_in_nodes.empty());
  const RicPool::RepairStats stats =
      pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  // Exactly the samples sourced at the touched communities regenerate.
  std::uint64_t expected = 0;
  for (const CommunityId c : effects.changed_communities) {
    expected += pool.community_frequency(c);
  }
  EXPECT_EQ(stats.repaired, expected);

  RicPool rebuilt(graph, communities);
  rebuilt.grow(kPoolSize, kSeed, /*parallel=*/false);
  expect_same_pool(pool, rebuilt);
}

TEST(PoolRepair, ParallelRepairMatchesSerialAndRebuild) {
  for (const unsigned threads : {2U, 8U}) {
    Graph graph = make_graph();
    CommunitySet communities = make_communities();
    ThreadPool workers(threads);
    RicPool pool(graph, communities);
    pool.grow(kPoolSize, kSeed, /*parallel=*/true, &workers);

    GraphDelta delta;
    delta.upsert_edge(4, 11, 0.6).remove_edge(0, 2).move_member(19, 1);
    const DeltaEffects effects = apply_delta(graph, communities, delta);
    (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/true,
                                     &workers);

    RicPool rebuilt(graph, communities);
    rebuilt.grow(kPoolSize, kSeed, /*parallel=*/false);
    expect_same_pool(pool, rebuilt);
  }
}

TEST(PoolRepair, CountersRecomputedNotDrifted) {
  // Satellite regression: community_frequency must equal a fresh build
  // after moves shuffle sample sources around (a drifted counter would
  // poison MAF's frequency term silently).
  Graph graph = make_graph(31);
  CommunitySet communities = make_communities();
  RicPool pool(graph, communities);
  pool.grow(600, kSeed, /*parallel=*/false);

  GraphDelta delta;
  delta.move_member(2, 3).move_member(40, 2).upsert_edge(5, 66, 0.3);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);

  RicPool fresh(graph, communities);
  fresh.grow(600, kSeed, /*parallel=*/false);
  std::uint64_t sum = 0;
  for (CommunityId c = 0; c < communities.size(); ++c) {
    EXPECT_EQ(pool.community_frequency(c), fresh.community_frequency(c))
        << "community " << c;
    sum += pool.community_frequency(c);
  }
  EXPECT_EQ(sum, pool.size());

  // ĉ and ν — the values CoverageState and the saturation sweeps derive —
  // agree with the fresh pool for a spread of seed sets.
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const auto seeds = rng.sample_without_replacement(
        graph.node_count(), 1 + static_cast<std::uint32_t>(rng.below(6)));
    EXPECT_EQ(pool.c_hat(seeds), fresh.c_hat(seeds));
    EXPECT_EQ(pool.nu(seeds), fresh.nu(seeds));
  }
}

TEST(PoolRepair, RepairBumpsEpochEvenWhenNoSampleWasAffected) {
  Graph graph = test::path_graph(8, 0.5);
  CommunitySet communities(8, {{0, 1}, {6, 7}});
  RicPool pool(graph, communities);
  pool.grow(50, kSeed, /*parallel=*/false);
  const RicPool::PoolEpoch before = pool.grow_epoch();
  EXPECT_EQ(pool.samples_since(before), 0U);

  // Inserting an edge into an untouched corner of the graph may repair
  // zero samples, but FUTURE samples could walk it: the epoch must bump so
  // carriers cannot survive.
  GraphDelta delta;
  delta.upsert_edge(2, 5, 0.0001);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  EXPECT_THROW((void)pool.samples_since(before), std::invalid_argument);
  EXPECT_EQ(pool.samples_since(pool.grow_epoch()), 0U);

  // An empty delta leaves the epoch alone.
  const RicPool::PoolEpoch after = pool.grow_epoch();
  (void)pool.invalidate_and_repair(DeltaEffects{}, kSeed,
                                   /*parallel=*/false);
  EXPECT_EQ(pool.samples_since(after), 0U);
}

TEST(PoolRepair, RepairThenGrowMatchesRebuild) {
  // Growth after a repair continues the rebuilt pool's substreams: the
  // repaired prefix plus fresh samples equals one rebuild of the full size.
  Graph graph = make_graph(11, 60);
  CommunitySet communities = make_communities(60, 1);
  RicPool pool(graph, communities);
  pool.grow(200, kSeed, /*parallel=*/false);

  GraphDelta delta;
  delta.upsert_edge(0, 59, 0.2);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  EXPECT_EQ(pool.size(), 200U);

  pool.grow(100, kSeed, /*parallel=*/false);
  RicPool rebuilt(graph, communities);
  rebuilt.grow(300, kSeed, /*parallel=*/false);
  expect_same_pool(pool, rebuilt);
}

TEST(PoolRepair, RepairRejectsInvariantBreakingDeltaUntouched) {
  // An LT pool whose delta pushes a node's in-weight sum past 1 must be
  // rejected by the sampler rebuild with the pool untouched.
  Graph graph = test::cycle_graph(6, 0.8);
  CommunitySet communities(6, {{0, 1, 2}, {3, 4, 5}});
  RicPool pool(graph, communities, DiffusionModel::kLinearThreshold);
  pool.grow(40, kSeed, /*parallel=*/false);

  GraphDelta delta;
  delta.upsert_edge(3, 1, 0.9);  // node 1 now sums 0.8 + 0.9 > 1
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  const RicPool::PoolEpoch before = pool.grow_epoch();
  EXPECT_THROW(
      (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false),
      std::invalid_argument);
  EXPECT_EQ(pool.samples_since(before), 0U);  // epoch not bumped
  EXPECT_EQ(pool.size(), 40U);
}

TEST(PoolRepair, SnapshotPersistsRepairsEpoch) {
  Graph graph = make_graph(5, 60);
  CommunitySet communities = make_communities(60, 1);
  const Graph old_graph = graph;  // pre-delta copies: the stale snapshot
  const CommunitySet old_communities = communities;  // binds to THESE
  RicPool pool(graph, communities);
  pool.grow(150, kSeed, /*parallel=*/false);

  const std::string path =
      (std::filesystem::temp_directory_path() / "imc_repair_epoch.snap")
          .string();
  save_ric_pool_snapshot(path, pool);  // saved with repairs == 0

  GraphDelta delta;
  delta.upsert_edge(0, 42, 0.3);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  const RicPool::PoolEpoch repaired = pool.grow_epoch();

  // A carrier captured against the repaired pool must NOT validate
  // against the stale pre-repair snapshot: the loaded epoch still says
  // repairs == 0. (Scoped: the attached pool maps the file, which the
  // save below rewrites.)
  {
    const RicPool loaded =
        attach_ric_pool_snapshot(path, old_graph, old_communities);
    EXPECT_THROW((void)loaded.samples_since(repaired), std::invalid_argument);
  }

  // And a snapshot of the repaired pool round-trips the repairs counter,
  // so the same carrier DOES validate after a save → attach cycle.
  save_ric_pool_snapshot(path, pool);
  const RicPool reloaded = attach_ric_pool_snapshot(path, graph, communities);
  EXPECT_EQ(reloaded.samples_since(repaired), 0U);
  expect_same_pool(pool, reloaded);
  std::filesystem::remove(path);
}

TEST(PoolRepair, WarmCarrierFallsBackColdAfterRepair) {
  Graph graph = make_graph();
  CommunitySet communities = make_communities();
  RicPool pool(graph, communities);
  pool.grow(800, kSeed, /*parallel=*/false);

  GreedyOptions options;
  UbgResume state;
  (void)ubg_resume(pool, 6, options, state);  // carrier captured pre-delta

  GraphDelta delta;
  delta.upsert_edge(2, 77, 0.5).move_member(10, 4);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);

  // The stale carrier must be detected (repairs epoch mismatch) and the
  // resume fall back to a cold solve on the repaired pool — bit-identical
  // to calling ubg_solve directly.
  const UbgSolution warm = ubg_resume(pool, 6, options, state);
  const UbgSolution cold = ubg_solve(pool, 6, options);
  EXPECT_EQ(warm.seeds, cold.seeds);
  EXPECT_EQ(warm.c_hat, cold.c_hat);
  EXPECT_EQ(warm.from_nu.seeds, cold.from_nu.seeds);
  EXPECT_EQ(warm.from_nu.nu, cold.from_nu.nu);
}

TEST(PoolRepair, EngineApplyDeltaRepairsAndSolvesCold) {
  ImcafConfig config;
  config.max_samples = 3000;
  config.seed = kSeed;
  config.parallel_sampling = false;

  GraphDelta delta;
  delta.upsert_edge(2, 77, 0.5).remove_edge(1, 0).move_member(10, 4);
  const UbgSolver solver;

  // Run the solve → delta → solve sequence twice from scratch: the whole
  // dynamic path must be deterministic, and the engine pool must equal a
  // from-scratch rebuild on the mutated structures after the repair.
  ImcafResult results[2];
  std::uint64_t pool_sizes[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    Graph graph = make_graph();
    CommunitySet communities = make_communities();
    ImcEngine engine(graph, communities, config);
    const ImcafResult first = engine.solve(8, solver);
    ASSERT_FALSE(first.seeds.empty());

    const RicPool::RepairStats stats =
        engine.apply_delta(graph, communities, delta);
    EXPECT_EQ(stats.total, engine.pool().size());
    if (run == 0) {
      RicPool rebuilt(graph, communities);
      rebuilt.grow(engine.pool().size(), kSeed, /*parallel=*/false);
      expect_same_pool(engine.pool(), rebuilt);
    }

    results[run] = engine.solve(8, solver);
    pool_sizes[run] = engine.pool().size();
    EXPECT_EQ(results[run].samples_used, pool_sizes[run]);
  }
  EXPECT_EQ(results[0].seeds, results[1].seeds);
  EXPECT_EQ(results[0].c_hat, results[1].c_hat);
  EXPECT_EQ(results[0].estimated_benefit, results[1].estimated_benefit);
  EXPECT_EQ(pool_sizes[0], pool_sizes[1]);
}

TEST(PoolRepair, EngineApplyDeltaChecksIdentity) {
  Graph graph = make_graph(3, 40);
  CommunitySet communities = make_communities(40, 1);
  ImcafConfig config;
  config.seed = kSeed;
  ImcEngine engine(graph, communities, config);
  Graph other = make_graph(3, 40);
  CommunitySet other_communities = make_communities(40, 1);
  GraphDelta delta;
  delta.upsert_edge(0, 1, 0.5);
  EXPECT_THROW((void)engine.apply_delta(other, communities, delta),
               std::invalid_argument);
  EXPECT_THROW((void)engine.apply_delta(graph, other_communities, delta),
               std::invalid_argument);
}

/// A rejected ImcEngine::apply_delta must leave everything as it was.
void expect_rejected_untouched(ImcEngine& engine, Graph& graph,
                               CommunitySet& communities,
                               const GraphDelta& delta,
                               const std::string& message) {
  const std::uint64_t graph_before = graph.fingerprint();
  const std::uint64_t communities_before = communities.fingerprint();
  const std::uint64_t size_before = engine.pool().size();
  const RicPool::PoolEpoch epoch_before = engine.pool().grow_epoch();
  try {
    (void)engine.apply_delta(graph, communities, delta);
    ADD_FAILURE() << "batch was not rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(message), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(graph.fingerprint(), graph_before);
  EXPECT_EQ(communities.fingerprint(), communities_before);
  EXPECT_EQ(engine.pool().size(), size_before);
  EXPECT_EQ(engine.pool().grow_epoch(), epoch_before);
}

TEST(PoolRepair, EngineRejectsOverfullCommunityUntouched) {
  // Community 0 sits at the 64-member mask width; one more move overfills
  // it. The last move of the batch is the bad one, so the earlier moves
  // must not be applied either.
  Graph graph = make_graph(9, 80);
  std::vector<NodeId> full(64);
  std::vector<NodeId> rest(16);
  for (NodeId v = 0; v < 64; ++v) full[v] = v;
  for (NodeId v = 0; v < 16; ++v) rest[v] = 64 + v;
  CommunitySet communities(80, {full, rest});
  apply_constant_thresholds(communities, 1);
  apply_population_benefits(communities);
  ImcafConfig config;
  config.max_samples = 500;
  config.seed = kSeed;
  config.parallel_sampling = false;
  ImcEngine engine(graph, communities, config);
  (void)engine.solve(4, UbgSolver());

  GraphDelta delta;
  delta.upsert_edge(70, 3, 0.3).move_member(5, 1).move_member(64, 0)
      .move_member(65, 0);
  expect_rejected_untouched(engine, graph, communities, delta,
                            "grows community 0 to 65 members");

  // The engine is still usable: a valid batch repairs as usual.
  GraphDelta valid;
  valid.move_member(5, 1);
  (void)engine.apply_delta(graph, communities, valid);
  RicPool rebuilt(graph, communities);
  rebuilt.grow(engine.pool().size(), kSeed, /*parallel=*/false);
  expect_same_pool(engine.pool(), rebuilt);
}

TEST(PoolRepair, EngineRejectsLtOverweightUntouched) {
  Graph graph = test::cycle_graph(6, 0.8);
  CommunitySet communities(6, {{0, 1, 2}, {3, 4, 5}});
  ImcafConfig config;
  config.model = DiffusionModel::kLinearThreshold;
  config.max_samples = 200;
  config.seed = kSeed;
  config.parallel_sampling = false;
  ImcEngine engine(graph, communities, config);
  (void)engine.solve(2, UbgSolver());

  GraphDelta delta;
  delta.move_member(2, 1).upsert_edge(4, 5, 0.1).upsert_edge(3, 1, 0.9);
  expect_rejected_untouched(engine, graph, communities, delta,
                            "weights of node 1 past 1");
}

}  // namespace
}  // namespace imc
