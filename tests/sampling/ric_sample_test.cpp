#include "sampling/ric_sample.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "test_support.h"
#include "util/mathx.h"

namespace imc {
namespace {

CommunitySet two_communities() {
  // nodes 0..5; C0 = {0, 1}, C1 = {4, 5}; relays 2, 3 outside.
  CommunitySet set(6, {{0, 1}, {4, 5}});
  return set;
}

TEST(RicSampler, RejectsBadInputs) {
  const Graph graph = test::path_graph(6);
  CommunitySet empty;
  EXPECT_THROW((void)RicSampler(graph, empty), std::invalid_argument);

  CommunitySet wrong_n(4, {{0, 1}});
  EXPECT_THROW((void)RicSampler(graph, wrong_n), std::invalid_argument);

  std::vector<NodeId> huge(65);
  for (NodeId v = 0; v < 65; ++v) huge[v] = v;
  const Graph big_graph = test::path_graph(65);
  CommunitySet too_big(65, {huge});
  EXPECT_THROW((void)RicSampler(big_graph, too_big), std::invalid_argument);
}

TEST(RicSampler, OversizedCommunityMessageNamesCommunityAndSize) {
  // Community 1 holds 70 members: the message must name both numbers.
  std::vector<NodeId> small{0, 1};
  std::vector<NodeId> oversized;
  for (NodeId v = 2; v < 72; ++v) oversized.push_back(v);
  const Graph graph = test::path_graph(72);
  CommunitySet communities(72, {small, oversized});
  try {
    (void)RicSampler(graph, communities);
    ADD_FAILURE() << "oversized community was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("community 1 "), std::string::npos) << message;
    EXPECT_NE(message.find("70 members"), std::string::npos) << message;
  }
}

TEST(RicSampler, MembersCarryOwnBit) {
  const Graph graph = test::path_graph(6, 0.5);
  const CommunitySet communities = two_communities();
  RicSampler sampler(graph, communities);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const RicSample g = sampler.generate(rng);
    const auto members = communities.members(g.community);
    for (std::uint32_t j = 0; j < members.size(); ++j) {
      EXPECT_TRUE(g.mask_of(members[j]) & (1ULL << j))
          << "member " << members[j] << " missing its own bit";
    }
  }
}

TEST(RicSampler, CertainGraphMatchesExactReachability) {
  // Deterministic edges: the sample must contain exactly the backward-
  // reachable nodes of each member, with exact masks.
  GraphBuilder builder;
  builder.reserve_nodes(6);
  builder.add_edge(2, 0, 1.0);   // 2 reaches member 0
  builder.add_edge(3, 2, 1.0);   // 3 -> 2 -> 0
  builder.add_edge(3, 1, 1.0);   // 3 reaches both members
  const Graph graph = builder.build();
  CommunitySet communities(6, {{0, 1}});
  RicSampler sampler(graph, communities);
  Rng rng(2);
  const RicSample g = sampler.generate_for_community(0, rng);

  EXPECT_EQ(g.community, 0U);
  EXPECT_EQ(g.member_count, 2U);
  EXPECT_EQ(g.mask_of(0), 0b01ULL);          // member 0 reaches itself
  EXPECT_EQ(g.mask_of(1), 0b10ULL);          // member 1 reaches itself
  EXPECT_EQ(g.mask_of(2), 0b01ULL);          // 2 -> 0
  EXPECT_EQ(g.mask_of(3), 0b11ULL);          // 3 -> both
  EXPECT_EQ(g.mask_of(4), 0ULL);             // untouched
  EXPECT_EQ(g.touching.size(), 4U);
}

TEST(RicSampler, MembersReachedAndInfluence) {
  GraphBuilder builder;
  builder.reserve_nodes(4);
  builder.add_edge(2, 0, 1.0).add_edge(3, 1, 1.0);
  const Graph graph = builder.build();
  CommunitySet communities(4, {{0, 1}});
  communities.set_threshold(0, 2);
  RicSampler sampler(graph, communities);
  Rng rng(3);
  const RicSample g = sampler.generate_for_community(0, rng);

  const std::vector<NodeId> just_two{2};
  const std::vector<NodeId> both{2, 3};
  EXPECT_EQ(g.members_reached(just_two), 1U);
  EXPECT_EQ(g.members_reached(both), 2U);
  EXPECT_FALSE(g.influenced_by(just_two));
  EXPECT_TRUE(g.influenced_by(both));
}

TEST(RicSampler, SourceDistributionFollowsBenefits) {
  const Graph graph = test::path_graph(6, 0.1);
  CommunitySet communities = two_communities();
  communities.set_benefit(0, 1.0);
  communities.set_benefit(1, 3.0);
  RicSampler sampler(graph, communities);
  Rng rng(4);
  int first = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    first += (sampler.generate(rng).community == 0);
  }
  EXPECT_NEAR(static_cast<double>(first) / kDraws, 0.25, 0.01);
}

TEST(RicSampler, EdgeProbabilityRespected) {
  // Single edge relay -> member with p = 0.3: the relay must appear in
  // ~30% of samples.
  GraphBuilder builder;
  builder.reserve_nodes(2);
  builder.add_edge(1, 0, 0.3);
  const Graph graph = builder.build();
  CommunitySet communities(2, {{0}});
  RicSampler sampler(graph, communities);
  Rng rng(5);
  int touched = 0;
  constexpr int kDraws = 30000;
  for (int i = 0; i < kDraws; ++i) {
    touched += (sampler.generate(rng).mask_of(1) != 0);
  }
  EXPECT_NEAR(static_cast<double>(touched) / kDraws, 0.3, 0.01);
}

TEST(RicSampler, ThresholdCopiedFromCommunity) {
  const Graph graph = test::path_graph(6, 0.5);
  CommunitySet communities = two_communities();
  communities.set_threshold(1, 2);
  RicSampler sampler(graph, communities);
  Rng rng(6);
  const RicSample g = sampler.generate_for_community(1, rng);
  EXPECT_EQ(g.threshold, 2U);
}

TEST(RicSampler, TouchingSortedByNode) {
  const Graph graph = test::complete_graph(8, 0.5);
  CommunitySet communities(8, {{0, 1, 2}});
  RicSampler sampler(graph, communities);
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const RicSample g = sampler.generate(rng);
    for (std::size_t j = 1; j < g.touching.size(); ++j) {
      EXPECT_LT(g.touching[j - 1].first, g.touching[j].first);
    }
  }
}

TEST(RicSampler, VisitEpochWrapRefillsAndRestarts) {
  // Regression for the epoch-counter wrap branch: at epoch_ == UINT32_MAX
  // the per-node visit marks could alias a restarted counter, so the
  // sampler must refill them and restart at 1 — and the samples generated
  // across the wrap must stay exact.
  GraphBuilder builder;
  builder.reserve_nodes(6);
  builder.add_edge(2, 0, 1.0);  // 2 -> member 0
  builder.add_edge(3, 2, 1.0);  // 3 -> 2 -> 0
  const Graph graph = builder.build();
  CommunitySet communities(6, {{0, 1}, {4, 5}});
  RicSampler sampler(graph, communities);
  Rng rng(9);

  // Populate the visit marks with a pre-wrap epoch, then force the wrap.
  const RicSample before = sampler.generate_for_community(0, rng);
  EXPECT_EQ(before.mask_of(3), 0b01ULL);
  sampler.set_visit_epoch_for_test(std::numeric_limits<std::uint32_t>::max());

  const RicSample wrapped = sampler.generate_for_community(0, rng);
  EXPECT_EQ(sampler.visit_epoch_for_test(), 1U);
  EXPECT_EQ(wrapped.mask_of(0), 0b01ULL);
  EXPECT_EQ(wrapped.mask_of(1), 0b10ULL);
  EXPECT_EQ(wrapped.mask_of(2), 0b01ULL);
  EXPECT_EQ(wrapped.mask_of(3), 0b01ULL);
  EXPECT_EQ(wrapped.touching.size(), 4U);

  // Marks stamped with the old large epochs must not leak into the
  // restarted counter's samples.
  const RicSample after = sampler.generate_for_community(1, rng);
  EXPECT_EQ(sampler.visit_epoch_for_test(), 2U);
  EXPECT_EQ(after.touching.size(), 2U);  // {4, 5}: no in-edges
  EXPECT_EQ(after.mask_of(2), 0ULL);
  EXPECT_EQ(after.mask_of(3), 0ULL);
}

TEST(RicSampler, GenerateIntoMatchesGenerate) {
  // The arena-direct path must emit exactly the touching pairs and
  // metadata of the RicSample path, including when the arena already holds
  // earlier samples (appends, no clobbering).
  const Graph graph = test::complete_graph(10, 0.4);
  CommunitySet communities(10, {{0, 1, 2}, {5, 6}});
  communities.set_threshold(1, 2);
  RicSampler by_value(graph, communities);
  RicSampler arena_direct(graph, communities);
  Rng rng_a(10);
  Rng rng_b(10);
  RicSampler::TouchArena arena;
  std::size_t consumed = 0;
  for (int i = 0; i < 40; ++i) {
    const RicSample expected = by_value.generate(rng_a);
    const RicSampleMeta meta = arena_direct.generate_into(rng_b, arena);
    EXPECT_EQ(meta.community, expected.community);
    EXPECT_EQ(meta.threshold, expected.threshold);
    EXPECT_EQ(meta.member_count, expected.member_count);
    ASSERT_EQ(meta.touch_count, expected.touching.size());
    ASSERT_EQ(arena.size(), consumed + meta.touch_count);
    for (std::size_t j = 0; j < expected.touching.size(); ++j) {
      EXPECT_EQ(arena[consumed + j], expected.touching[j]);
    }
    consumed = arena.size();
  }
}

TEST(RicSampler, ScratchStateResetsBetweenSamples) {
  // Alternate between communities; leakage across samples would corrupt
  // masks or touching sets. Deterministic graph makes this exact.
  GraphBuilder builder;
  builder.reserve_nodes(6);
  builder.add_edge(2, 0, 1.0);
  builder.add_edge(3, 4, 1.0);
  const Graph graph = builder.build();
  CommunitySet communities(6, {{0, 1}, {4, 5}});
  RicSampler sampler(graph, communities);
  Rng rng(8);
  for (int round = 0; round < 25; ++round) {
    const RicSample a = sampler.generate_for_community(0, rng);
    EXPECT_EQ(a.touching.size(), 3U);  // {0, 1, 2}
    EXPECT_EQ(a.mask_of(3), 0ULL);
    const RicSample b = sampler.generate_for_community(1, rng);
    EXPECT_EQ(b.touching.size(), 3U);  // {3, 4, 5}
    EXPECT_EQ(b.mask_of(2), 0ULL);
    EXPECT_EQ(b.mask_of(3), 0b01ULL);  // 3 -> member 4 (index 0 of C1)
  }
}

}  // namespace
}  // namespace imc
