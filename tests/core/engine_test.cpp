// ImcEngine regression and behavior tests.
//
// The golden pins below were recorded from the PRE-engine imcaf_solve
// (the monolithic driver, cold solve every stage) on a fixed BA-150
// scenario. The engine — with warm_start ON, its default — must reproduce
// them exactly: seed order, final |R|, stop-stage count, and ĉ down to the
// last bit (hexfloat literals). Any engine, warm-start, or pool-epoch
// change that perturbs a draw sequence or a floating-point accumulation
// shows up here as a changed pin.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "community/threshold_policy.h"
#include "core/engine.h"
#include "core/imcaf.h"
#include "core/maf.h"
#include "core/maxr_solver.h"
#include "core/ubg.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "util/context.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

class ImcEngineTest : public ::testing::Test {
 protected:
  static Graph make_graph() {
    Rng rng(77);
    BarabasiAlbertConfig config;
    config.nodes = 150;
    config.attach = 3;
    EdgeList edges = barabasi_albert_edges(config, rng);
    apply_weighted_cascade(edges, config.nodes);
    return Graph(config.nodes, edges);
  }

  static CommunitySet make_communities(std::uint32_t h) {
    CommunitySet communities = test::chunk_communities(150, 6);
    apply_constant_thresholds(communities, h);
    apply_population_benefits(communities);
    return communities;
  }

  /// The exact configuration the pins were captured under.
  static ImcafConfig pinned_config() {
    ImcafConfig config;
    config.max_samples = 6000;
    config.seed = 2024;
    config.parallel_sampling = false;
    return config;
  }

  Graph graph_ = make_graph();
};

struct GoldenPin {
  std::uint32_t h;
  MaxrAlgorithm algorithm;
  std::vector<NodeId> seeds;
  double c_hat;  // exact hexfloat value on the final pool
};

// Recorded from the pre-engine driver; see the header comment.
const std::vector<GoldenPin>& golden_pins() {
  static const std::vector<GoldenPin> pins = {
      {1, MaxrAlgorithm::kUbg, {1, 3, 0, 6, 8, 40, 97, 10},
       0x1.2373333333333p+7},
      {1, MaxrAlgorithm::kMaf, {1, 3, 0, 8, 10, 6, 2, 4}, 0x1.22cp+7},
      {1, MaxrAlgorithm::kBt, {1, 3, 0, 10, 4, 2, 8, 6}, 0x1.22cp+7},
      {1, MaxrAlgorithm::kMb, {1, 3, 0, 8, 10, 6, 2, 4}, 0x1.22cp+7},
      {2, MaxrAlgorithm::kUbg, {1, 3, 0, 8, 6, 10, 20, 40}, 0x1.fap+6},
      {2, MaxrAlgorithm::kMaf, {1, 3, 0, 8, 10, 6, 2, 4},
       0x1.f59999999999ap+6},
      {2, MaxrAlgorithm::kBt, {1, 3, 0, 10, 8, 2, 20, 14},
       0x1.f81999999999ap+6},
      {2, MaxrAlgorithm::kMb, {1, 3, 0, 10, 8, 2, 20, 14},
       0x1.f81999999999ap+6},
  };
  return pins;
}

/// The pinned UBG/MAF solver with its selection sweeps forced onto
/// `workers`.
std::unique_ptr<MaxrSolver> parallel_solver(MaxrAlgorithm algorithm,
                                            ThreadPool& workers) {
  GreedyOptions greedy;
  greedy.parallel = true;
  greedy.pool = &workers;
  greedy.min_parallel_candidates = 1;  // force the parallel path
  if (algorithm == MaxrAlgorithm::kUbg) {
    return std::make_unique<UbgSolver>(greedy);
  }
  return std::make_unique<MafSolver>(MaxrSolverOptions{}.maf_seed, greedy);
}

TEST_F(ImcEngineTest, GoldenPinsMatchPreEngineDriver) {
  for (const GoldenPin& pin : golden_pins()) {
    const CommunitySet communities = make_communities(pin.h);
    const auto solver = make_maxr_solver(pin.algorithm);
    const ImcafResult result =
        imcaf_solve(graph_, communities, 8, *solver, pinned_config());
    const std::string where =
        "h=" + std::to_string(pin.h) + " " + to_string(pin.algorithm);
    EXPECT_EQ(result.seeds, pin.seeds) << where;
    EXPECT_EQ(result.samples_used, 6000U) << where;
    EXPECT_EQ(result.stop_stages, 3U) << where;
    EXPECT_EQ(result.c_hat, pin.c_hat) << where;
  }
}

// The IMCAF pipeline (grow → select → stop rule) driven through ImcEngine
// with a worker pool: the UBG/MAF pins must hold at every worker count,
// with parallel sample growth on and off, and with the selection sweeps
// forced onto the workers (serial ≡ parallel). BT and MB have no parallel
// selection, and the pool they would see is the one these legs pin.
class PipelineEngineTest : public ImcEngineTest {};

TEST_F(PipelineEngineTest, GoldenPinsHoldAtEveryThreadCountOnAndOff) {
  for (const GoldenPin& pin : golden_pins()) {
    if (pin.algorithm != MaxrAlgorithm::kUbg &&
        pin.algorithm != MaxrAlgorithm::kMaf) {
      continue;
    }
    const CommunitySet communities = make_communities(pin.h);
    for (const unsigned threads : {1U, 2U, 8U}) {
      ThreadPool workers(threads);
      ExecutionContext context;
      context.workers = &workers;
      for (const bool parallel_sampling : {true, false}) {
        ImcafConfig config = pinned_config();
        config.parallel_sampling = parallel_sampling;
        ImcEngine engine(graph_, communities, config, context);
        const ImcafResult result =
            engine.solve(8, *parallel_solver(pin.algorithm, workers));
        const std::string where =
            "h=" + std::to_string(pin.h) + " " + to_string(pin.algorithm) +
            " threads=" + std::to_string(threads) +
            (parallel_sampling ? " parallel growth" : " serial growth");
        EXPECT_EQ(result.seeds, pin.seeds) << where;
        EXPECT_EQ(result.samples_used, 6000U) << where;
        EXPECT_EQ(result.stop_stages, 3U) << where;
        EXPECT_EQ(result.c_hat, pin.c_hat) << where;
        EXPECT_EQ(engine.pool().grow_epoch(), (RicPool::PoolEpoch{6000, 3}))
            << where;
      }
    }
  }
}

TEST_F(ImcEngineTest, WarmStartFlagDoesNotChangeResults) {
  // The resume() contract end to end: turning warm_start off must not move
  // a single bit of the outcome, only the time spent inside the solver.
  for (const std::uint32_t h : {1U, 2U}) {
    const CommunitySet communities = make_communities(h);
    const UbgSolver solver;
    ImcafConfig cold_config = pinned_config();
    cold_config.warm_start = false;
    const ImcafResult warm =
        imcaf_solve(graph_, communities, 8, solver, pinned_config());
    const ImcafResult cold =
        imcaf_solve(graph_, communities, 8, solver, cold_config);
    EXPECT_EQ(warm.seeds, cold.seeds) << "h=" << h;
    EXPECT_EQ(warm.c_hat, cold.c_hat) << "h=" << h;
    EXPECT_EQ(warm.estimated_benefit, cold.estimated_benefit) << "h=" << h;
    EXPECT_EQ(warm.samples_used, cold.samples_used) << "h=" << h;
    EXPECT_EQ(warm.stop_stages, cold.stop_stages) << "h=" << h;
  }
}

TEST_F(ImcEngineTest, WarmUbgMatchesColdAcrossDoublingAndThreads) {
  // Solver-level equivalence at every doubling stage: resume must match a
  // cold solve on the same grown pool bit-for-bit — seed set, ĉ, and the
  // ν value of the CELF side — at 1, 2 and 8 workers.
  for (const std::uint32_t h : {1U, 2U}) {
    const CommunitySet communities = make_communities(h);
    for (const unsigned threads : {1U, 2U, 8U}) {
      ThreadPool workers(threads);
      GreedyOptions options;
      options.parallel = true;
      options.pool = &workers;
      options.min_parallel_candidates = 1;  // force the parallel path
      RicPool pool(graph_, communities);
      UbgResume state;
      for (const std::uint64_t target : {1500U, 3000U, 6000U}) {
        pool.grow(target - pool.size(), 2024, /*parallel=*/false);
        const UbgSolution warm = ubg_resume(pool, 8, options, state);
        const UbgSolution cold = ubg_solve(pool, 8, options);
        const std::string where = "h=" + std::to_string(h) +
                                  " threads=" + std::to_string(threads) +
                                  " |R|=" + std::to_string(target);
        EXPECT_EQ(warm.seeds, cold.seeds) << where;
        EXPECT_EQ(warm.c_hat, cold.c_hat) << where;
        EXPECT_EQ(warm.from_c_hat.seeds, cold.from_c_hat.seeds) << where;
        EXPECT_EQ(warm.from_c_hat.c_hat, cold.from_c_hat.c_hat) << where;
        EXPECT_EQ(warm.from_nu.seeds, cold.from_nu.seeds) << where;
        EXPECT_EQ(warm.from_nu.nu, cold.from_nu.nu) << where;
        EXPECT_EQ(warm.sandwich_ratio, cold.sandwich_ratio) << where;
      }
    }
  }
}

TEST_F(ImcEngineTest, WarmMafMatchesColdAcrossDoublingAndThreads) {
  for (const std::uint32_t h : {1U, 2U}) {
    const CommunitySet communities = make_communities(h);
    for (const unsigned threads : {1U, 2U, 8U}) {
      ThreadPool workers(threads);
      GreedyOptions options;
      options.parallel = true;
      options.pool = &workers;
      options.min_parallel_candidates = 1;
      RicPool pool(graph_, communities);
      MafResume state;
      for (const std::uint64_t target : {1500U, 3000U, 6000U}) {
        pool.grow(target - pool.size(), 2024, /*parallel=*/false);
        const MafSolution warm = maf_resume(pool, 8, /*seed=*/99, options,
                                            state);
        const MafSolution cold = maf_solve(pool, 8, /*seed=*/99, options);
        const std::string where = "h=" + std::to_string(h) +
                                  " threads=" + std::to_string(threads) +
                                  " |R|=" + std::to_string(target);
        EXPECT_EQ(warm.seeds, cold.seeds) << where;
        EXPECT_EQ(warm.c_hat, cold.c_hat) << where;
        EXPECT_EQ(warm.s1, cold.s1) << where;
        EXPECT_EQ(warm.s2, cold.s2) << where;
        EXPECT_EQ(warm.chose_s1, cold.chose_s1) << where;
      }
    }
  }
}

TEST_F(ImcEngineTest, SolveManySharesOnePoolAcrossQueries) {
  const CommunitySet communities = make_communities(1);
  const UbgSolver ubg;
  const MafSolver maf;
  ImcEngine engine(graph_, communities, pinned_config());
  const std::vector<EngineQuery> queries{{8, &ubg}, {8, &maf}, {4, &ubg}};
  const std::vector<ImcafResult> results = engine.solve_many(queries);
  ASSERT_EQ(results.size(), 3U);

  // The first query is exactly the single-shot run — golden pin holds.
  EXPECT_EQ(results[0].seeds, (std::vector<NodeId>{1, 3, 0, 6, 8, 40, 97,
                                                   10}));
  EXPECT_EQ(results[0].samples_used, 6000U);

  // The pool only ever grows; later queries start from the grown size.
  for (std::size_t i = 0; i + 1 < results.size(); ++i) {
    EXPECT_LE(results[i].samples_used, results[i + 1].samples_used);
  }
  EXPECT_EQ(engine.pool().size(), results.back().samples_used);
  for (const ImcafResult& result : results) {
    EXPECT_FALSE(result.seeds.empty());
  }
}

TEST_F(ImcEngineTest, SolveManyRejectsNullSolver) {
  const CommunitySet communities = make_communities(1);
  ImcEngine engine(graph_, communities, pinned_config());
  const std::vector<EngineQuery> queries{{8, nullptr}};
  EXPECT_THROW((void)engine.solve_many(queries), std::invalid_argument);
}

TEST_F(ImcEngineTest, ValidatesArguments) {
  const CommunitySet empty(150, {});
  EXPECT_THROW(ImcEngine(graph_, empty, pinned_config()),
               std::invalid_argument);
  const CommunitySet communities = make_communities(1);
  ImcEngine engine(graph_, communities, pinned_config());
  const UbgSolver solver;
  EXPECT_THROW((void)engine.solve(0, solver), std::invalid_argument);
  EXPECT_THROW((void)engine.solve(151, solver), std::invalid_argument);
}

TEST_F(ImcEngineTest, ExpiredDeadlineReturnsPartialResultAfterOneStage) {
  const CommunitySet communities = make_communities(1);
  const UbgSolver solver;
  ExecutionContext context;
  context.deadline = Deadline(1e-9);  // effectively already expired
  ImcEngine engine(graph_, communities, pinned_config(), context);
  const ImcafResult result = engine.solve(8, solver);
  EXPECT_TRUE(result.reached_deadline);
  EXPECT_FALSE(result.reached_cap);
  EXPECT_EQ(result.stop_stages, 1U);
  // Stopping is only checked after a solve, so a real candidate survives.
  EXPECT_EQ(result.seeds.size(), 8U);
}

TEST_F(ImcEngineTest, CancellationFlagStopsAfterCurrentStage) {
  const CommunitySet communities = make_communities(1);
  const UbgSolver solver;
  const std::atomic<bool> cancel{true};
  ExecutionContext context;
  context.cancel = &cancel;
  ImcEngine engine(graph_, communities, pinned_config(), context);
  const ImcafResult result = engine.solve(8, solver);
  EXPECT_TRUE(result.reached_deadline);
  EXPECT_EQ(result.stop_stages, 1U);
  EXPECT_EQ(result.seeds.size(), 8U);
}

TEST_F(ImcEngineTest, MetricsSinkRecordsOneRowPerStopStage) {
  const CommunitySet communities = make_communities(1);
  const UbgSolver solver;
  RecordingMetricsSink metrics;
  ExecutionContext context;
  context.metrics = &metrics;
  ImcEngine engine(graph_, communities, pinned_config(), context);
  const ImcafResult result = engine.solve(8, solver);

  const std::vector<StageMetrics> rows = metrics.stages();
  ASSERT_EQ(rows.size(), result.stop_stages);
  ASSERT_EQ(rows.size(), 3U);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].stage, i + 1);
    // warm_start defaults on: cold first stage, resumed afterwards.
    EXPECT_EQ(rows[i].warm_start, i > 0);
    EXPECT_GE(rows[i].solver_seconds, 0.0);
    if (i > 0) {
      EXPECT_GT(rows[i].pool_size, rows[i - 1].pool_size);
      EXPECT_EQ(rows[i].samples_added,
                rows[i].pool_size - rows[i - 1].pool_size);
      EXPECT_FALSE(rows[i - 1].accepted);  // only the last row can accept
    } else {
      EXPECT_EQ(rows[i].samples_added, rows[i].pool_size);
    }
  }
  EXPECT_EQ(rows.back().pool_size, result.samples_used);
  // The run ends by acceptance or by the cap — exactly one of the two.
  EXPECT_NE(rows.back().accepted, result.reached_cap);

  std::ostringstream out;
  metrics.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  std::size_t row_count = 0;
  for (std::size_t at = json.find("\"pool_size\""); at != std::string::npos;
       at = json.find("\"pool_size\"", at + 1)) {
    ++row_count;
  }
  EXPECT_EQ(row_count, rows.size());
}

}  // namespace
}  // namespace imc
