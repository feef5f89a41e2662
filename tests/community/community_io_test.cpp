#include "community/community_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

namespace imc {
namespace {

CommunitySet sample_set() {
  CommunitySet set(8, {{0, 1, 2}, {4, 5}, {7}});
  set.set_threshold(0, 2);
  set.set_threshold(1, 2);
  set.set_benefit(0, 3.5);
  set.set_benefit(2, 9.0);
  return set;
}

TEST(CommunityIo, RoundTripPreservesEverything) {
  const CommunitySet original = sample_set();
  std::stringstream buffer;
  write_communities(buffer, original);
  const CommunitySet loaded = read_communities(buffer, original.node_count());

  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.node_count(), original.node_count());
  for (CommunityId c = 0; c < original.size(); ++c) {
    EXPECT_EQ(loaded.threshold(c), original.threshold(c));
    EXPECT_DOUBLE_EQ(loaded.benefit(c), original.benefit(c));
    ASSERT_EQ(loaded.population(c), original.population(c));
    const auto a = loaded.members(c);
    const auto b = original.members(c);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(CommunityIo, AcceptsCommentsAndBlankLines) {
  std::istringstream in(
      "# a comment\n"
      "imc-communities v1\n"
      "# another\n"
      "nodes 4\n"
      "community 0 threshold 1 benefit 2.5\n"
      "members 0 1 3\n");
  const CommunitySet set = read_communities(in, 4);
  EXPECT_EQ(set.size(), 1U);
  EXPECT_DOUBLE_EQ(set.benefit(0), 2.5);
  EXPECT_EQ(set.community_of(3), 0U);
}

TEST(CommunityIo, MembersWithoutHeaderGetDefaults) {
  std::istringstream in(
      "imc-communities v1\n"
      "nodes 3\n"
      "members 0 0 1 2\n");
  const CommunitySet set = read_communities(in, 3);
  EXPECT_EQ(set.threshold(0), 1U);
  EXPECT_DOUBLE_EQ(set.benefit(0), 1.0);
}

/// read_communities(text) over a graph of `node_count` nodes must throw E
/// whose message names `line`.
template <typename E>
void expect_rejected_at(const std::string& text, std::size_t line,
                        NodeId node_count = 6) {
  std::istringstream in(text);
  try {
    (void)read_communities(in, node_count);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const E& error) {
    EXPECT_NE(std::string(error.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << error.what();
  }
}

TEST(CommunityIo, RejectsMalformedInput) {
  {
    std::istringstream in("not a header\n");
    EXPECT_THROW((void)read_communities(in, 3), std::runtime_error);
  }
  {
    std::istringstream in("imc-communities v1\nnodes 3\nbogus 1\n");
    EXPECT_THROW((void)read_communities(in, 3), std::runtime_error);
  }
  {
    // Non-dense ids.
    std::istringstream in(
        "imc-communities v1\nnodes 5\nmembers 2 0 1\n");
    EXPECT_THROW((void)read_communities(in, 5), std::runtime_error);
  }
  {
    // Member out of node range: a CommunitySet invariant.
    std::istringstream in(
        "imc-communities v1\nnodes 2\nmembers 0 0 7\n");
    EXPECT_THROW((void)read_communities(in, 2), std::invalid_argument);
  }
  const std::string header = "imc-communities v1\n";
  // A negative count must not wrap to 2^32 - 1 and size an allocation.
  expect_rejected_at<std::runtime_error>(header + "nodes -1\nmembers 0 0\n",
                                         2);
  expect_rejected_at<std::runtime_error>(header + "nodes 6 junk\n", 2);
  expect_rejected_at<std::runtime_error>(header + "nodes six\n", 2);
  // A partly numeric id must not load as {0, 1} and drop the rest.
  expect_rejected_at<std::runtime_error>(header + "nodes 6\nmembers 0 0 1x 2\n",
                                         3);
  expect_rejected_at<std::runtime_error>(header + "nodes 6\nmembers 0 -1\n", 3);
  expect_rejected_at<std::runtime_error>(header + "nodes 6\nmembers x 1\n", 3);
  expect_rejected_at<std::runtime_error>(
      header + "nodes 6\ncommunity 0 threshold 1 benefit 2 extra\n"
               "members 0 1\n",
      3);
  expect_rejected_at<std::runtime_error>(
      header + "nodes 6\ncommunity 0 threshold -1 benefit 2\nmembers 0 1\n",
      3);
  expect_rejected_at<std::runtime_error>(
      header + "nodes 6\nmembers 0 1\nmembers 0 2\n", 4);
  // The graph's node count is checked at the 'nodes' line itself, before
  // anything is sized by the header.
  expect_rejected_at<std::runtime_error>(
      header + "nodes 4294967295\nmembers 0 0\n", 2);
  expect_rejected_at<std::runtime_error>(header + "nodes 5\nmembers 0 0\n",
                                         2);
  // Well-formed lines that break a CommunitySet invariant name their line.
  expect_rejected_at<std::invalid_argument>(
      header + "nodes 6\nmembers 0 1 2\nmembers 1 2\n", 4);
  expect_rejected_at<std::invalid_argument>(
      header + "nodes 6\ncommunity 0 threshold 3 benefit 1\nmembers 0 1\n",
      3);
  expect_rejected_at<std::invalid_argument>(
      header + "nodes 6\ncommunity 0 threshold 1 benefit 0\nmembers 0 1\n",
      3);
}

TEST(CommunityIo, FileRoundTrip) {
  const CommunitySet original = sample_set();
  const std::string path = ::testing::TempDir() + "/imc_communities_test.txt";
  save_communities(path, original);
  const CommunitySet loaded = load_communities(path, original.node_count());
  EXPECT_EQ(loaded.size(), original.size());
  std::remove(path.c_str());
}

TEST(CommunityIo, MissingFileThrows) {
  EXPECT_THROW((void)load_communities("/no/such/file.txt", 8),
               std::runtime_error);
}

}  // namespace
}  // namespace imc
