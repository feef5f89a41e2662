// Equivalence tests for the flat CSR/SoA pool layout: after any interleaving
// of serial and parallel grow() calls, the CSR inverted index, the
// sample-major arena, the appearance counts, and the community frequencies
// must match a straightforward nested-vector reference rebuilt from the
// materialized per-sample views. Also pins the uint32 sample-id overflow
// guard.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "community/threshold_policy.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/ric_pool.h"
#include "sampling/ric_sample.h"
#include "test_support.h"
#include "util/rng.h"

namespace imc {
namespace {

struct RefTouch {
  std::uint32_t sample;
  std::uint32_t threshold;
  std::uint64_t mask;
};

/// The pre-refactor representation: one vector of touches per node, built
/// by a direct walk over the samples in insertion order.
std::vector<std::vector<RefTouch>> reference_index(const RicPool& pool) {
  std::vector<std::vector<RefTouch>> index(pool.graph().node_count());
  for (std::uint32_t g = 0; g < pool.size(); ++g) {
    const RicSample& sample = pool.sample(g);
    for (const auto& [node, mask] : sample.touching) {
      index[node].push_back(RefTouch{g, sample.threshold, mask});
    }
  }
  return index;
}

void expect_matches_reference(const RicPool& pool) {
  const auto reference = reference_index(pool);
  const auto offsets = pool.touch_offsets();
  ASSERT_EQ(offsets.size(), pool.graph().node_count() + 1);
  EXPECT_EQ(offsets.front(), 0U);

  std::uint64_t total = 0;
  for (NodeId v = 0; v < pool.graph().node_count(); ++v) {
    ASSERT_LE(offsets[v], offsets[v + 1]) << "offsets must be monotone";
    const auto touches = pool.touches_of(v);
    ASSERT_EQ(touches.size(), reference[v].size()) << "node " << v;
    EXPECT_EQ(pool.appearance_count(v), reference[v].size());
    for (std::size_t i = 0; i < touches.size(); ++i) {
      EXPECT_EQ(touches[i].sample, reference[v][i].sample)
          << "node " << v << " touch " << i;
      EXPECT_EQ(touches[i].threshold, reference[v][i].threshold);
      EXPECT_EQ(touches[i].mask, reference[v][i].mask);
    }
    total += touches.size();
  }
  EXPECT_EQ(offsets.back(), total);
  EXPECT_EQ(pool.touch_arena().size(), total);

  // The sample-major arena serves exactly the AoS touching lists.
  for (std::uint32_t g = 0; g < pool.size(); ++g) {
    const auto span = pool.sample_touches(g);
    const auto& aos = pool.sample(g).touching;
    ASSERT_EQ(span.size(), aos.size()) << "sample " << g;
    for (std::size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i].first, aos[i].first);
      EXPECT_EQ(span[i].second, aos[i].second);
    }
    EXPECT_EQ(pool.threshold_of(g), pool.sample(g).threshold);
    EXPECT_EQ(pool.source_communities()[g], pool.sample(g).community);
  }

  // Community frequencies match a direct count of source communities.
  std::vector<std::uint32_t> frequency(pool.communities().size(), 0);
  for (std::uint32_t g = 0; g < pool.size(); ++g) {
    ++frequency[pool.sample(g).community];
  }
  for (CommunityId c = 0; c < pool.communities().size(); ++c) {
    EXPECT_EQ(pool.community_frequency(c), frequency[c]) << "community " << c;
  }
}

class RicPoolCsrTest : public ::testing::Test {
 protected:
  static Graph make_graph() {
    Rng rng(42);
    BarabasiAlbertConfig config;
    config.nodes = 80;
    config.attach = 3;
    EdgeList edges = barabasi_albert_edges(config, rng);
    apply_weighted_cascade(edges, config.nodes);
    return Graph(config.nodes, edges);
  }

  static CommunitySet make_communities() {
    CommunitySet communities = test::chunk_communities(80, 5);
    apply_constant_thresholds(communities, 2);
    apply_population_benefits(communities);
    return communities;
  }

  Graph graph_ = make_graph();
  CommunitySet communities_ = make_communities();
};

TEST_F(RicPoolCsrTest, InterleavedSerialAndParallelGrowthMatchesReference) {
  RicPool pool(graph_, communities_);

  // Interleave serial and parallel growth, including single-sample and
  // back-to-back batches; the eagerly merged index must match the
  // reference after every step.
  pool.grow(60, 11, /*parallel=*/false);
  expect_matches_reference(pool);

  pool.grow(17, 11, /*parallel=*/false);
  expect_matches_reference(pool);

  pool.grow(90, 11, /*parallel=*/true);
  expect_matches_reference(pool);

  pool.grow(1, 23, /*parallel=*/true);
  pool.grow(40, 23, /*parallel=*/true);
  expect_matches_reference(pool);

  pool.grow(25, 31, /*parallel=*/false);
  pool.grow(9, 31, /*parallel=*/true);
  expect_matches_reference(pool);
}

TEST_F(RicPoolCsrTest, SerialAndParallelGrowthProduceIdenticalPools) {
  RicPool serial(graph_, communities_);
  serial.grow(150, 13, /*parallel=*/false);
  RicPool parallel(graph_, communities_);
  parallel.grow(70, 13, /*parallel=*/true);
  parallel.grow(80, 13, /*parallel=*/true);

  ASSERT_EQ(serial.size(), parallel.size());
  const auto serial_offsets = serial.touch_offsets();
  const auto parallel_offsets = parallel.touch_offsets();
  ASSERT_EQ(serial_offsets.size(), parallel_offsets.size());
  for (std::size_t i = 0; i < serial_offsets.size(); ++i) {
    EXPECT_EQ(serial_offsets[i], parallel_offsets[i]);
  }
  const auto serial_arena = serial.touch_arena();
  const auto parallel_arena = parallel.touch_arena();
  ASSERT_EQ(serial_arena.size(), parallel_arena.size());
  for (std::size_t i = 0; i < serial_arena.size(); ++i) {
    EXPECT_EQ(serial_arena[i].sample, parallel_arena[i].sample);
    EXPECT_EQ(serial_arena[i].threshold, parallel_arena[i].threshold);
    EXPECT_EQ(serial_arena[i].mask, parallel_arena[i].mask);
  }
}

TEST_F(RicPoolCsrTest, GrowEpochWatermarksEveryGrowthPath) {
  RicPool pool(graph_, communities_);
  const RicPool::PoolEpoch start = pool.grow_epoch();
  EXPECT_EQ(start.samples, 0U);
  EXPECT_EQ(pool.samples_since(start), 0U);

  pool.grow(60, 11, /*parallel=*/false);
  const RicPool::PoolEpoch after_serial = pool.grow_epoch();
  EXPECT_EQ(pool.samples_since(start), 60U);
  EXPECT_EQ(pool.samples_since(after_serial), 0U);
  EXPECT_FALSE(start == after_serial);

  // A one-sample grow() and parallel grow() advance the watermark too.
  pool.grow(1, 11, /*parallel=*/false);
  EXPECT_EQ(pool.samples_since(after_serial), 1U);
  const RicPool::PoolEpoch after_single = pool.grow_epoch();
  EXPECT_FALSE(after_single == after_serial);

  pool.grow(40, 23, /*parallel=*/true);
  EXPECT_EQ(pool.samples_since(after_single), 40U);
  EXPECT_EQ(pool.samples_since(start), 101U);
  EXPECT_TRUE(pool.grow_epoch() == pool.grow_epoch());
}

TEST_F(RicPoolCsrTest, SamplesSinceRejectsForeignOrNewerEpochs) {
  RicPool pool(graph_, communities_);
  pool.grow(50, 11, /*parallel=*/false);
  for (int i = 0; i < 3; ++i) pool.grow(1, 11, /*parallel=*/false);

  // An epoch from a pool with MORE samples than this one cannot be ours.
  RicPool bigger(graph_, communities_);
  bigger.grow(80, 3, /*parallel=*/false);
  bigger.grow(80, 3, /*parallel=*/false);
  EXPECT_THROW((void)pool.samples_since(bigger.grow_epoch()),
               std::invalid_argument);
  // ... and a foreign watermark whose sample count fits is still caught by
  // the grow counter (pool has 4 growth events, bigger only 2).
  EXPECT_THROW((void)bigger.samples_since(pool.grow_epoch()),
               std::invalid_argument)
      << "epoch with matching samples but foreign grow history accepted";
}

TEST_F(RicPoolCsrTest, GrowRejectsSampleIdOverflow) {
  RicPool pool(graph_, communities_);
  const std::uint64_t too_many =
      static_cast<std::uint64_t>(std::numeric_limits<std::uint32_t>::max()) +
      1;
  // The guard must fire BEFORE any generation or allocation happens.
  EXPECT_THROW(pool.grow(too_many, 1), std::length_error);
  try {
    pool.grow(too_many, 1);
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos)
        << "overflow message should explain the sample-id limit: "
        << e.what();
  }
  EXPECT_EQ(pool.size(), 0U);
}

}  // namespace
}  // namespace imc
