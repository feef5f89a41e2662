// Deterministic byte-mutation fuzzing of the communities-file parser
// (imc_cli --communities): random line soups and corrupted valid files must
// either parse into a structurally valid CommunitySet or throw the
// parser's documented exception with a "communities file, line N"
// diagnostic — never crash, never bad_alloc. Parsing passes the graph's
// node count, as the CLI does, so no header can size an allocation.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "community/community_io.h"
#include "util/rng.h"

namespace imc {
namespace {

constexpr NodeId kNodes = 40;

void expect_line_diagnostic(const std::exception& error) {
  EXPECT_EQ(std::string(error.what()).rfind("communities file, line ", 0),
            0U)
      << error.what();
}

/// Parses `text`; on success checks the structure, on failure that the
/// diagnostic names its line.
void expect_parsed_or_rejected(const std::string& text) {
  std::istringstream in(text);
  try {
    const CommunitySet set = read_communities(in, kNodes);
    EXPECT_EQ(set.node_count(), kNodes);
    for (CommunityId c = 0; c < set.size(); ++c) {
      EXPECT_GE(set.population(c), 1U);
      EXPECT_GE(set.threshold(c), 1U);
      EXPECT_LE(set.threshold(c), set.population(c));
      EXPECT_TRUE(std::isfinite(set.benefit(c)));
      EXPECT_GT(set.benefit(c), 0.0);
      for (const NodeId v : set.members(c)) {
        ASSERT_LT(v, kNodes);
        EXPECT_EQ(set.community_of(v), c);
      }
    }
  } catch (const std::runtime_error& error) {
    expect_line_diagnostic(error);
  } catch (const std::invalid_argument& error) {
    expect_line_diagnostic(error);
  }
}

/// A valid file: random disjoint communities over kNodes nodes.
std::string valid_file(Rng& rng) {
  std::vector<std::vector<NodeId>> groups;
  for (NodeId v = 0; v < kNodes; ++v) {
    if (rng.below(4) == 0) continue;  // not in any community
    if (groups.empty() || rng.below(3) == 0) groups.emplace_back();
    groups.back().push_back(v);
  }
  CommunitySet set(kNodes, std::move(groups));
  for (CommunityId c = 0; c < set.size(); ++c) {
    set.set_threshold(c, static_cast<std::uint32_t>(
                             rng.between(1, set.population(c))));
    set.set_benefit(c, 0.5 + static_cast<double>(rng.below(20)));
  }
  std::ostringstream out;
  write_communities(out, set);
  return out.str();
}

std::string random_soup(Rng& rng, int lines) {
  static const char* const kTokens[] = {
      "community", "members", "threshold", "benefit", "0", "1", "2",
      "7",         "39",      "40",        "-1",      "1x", "2.5", "nan",
      "#",         "nodes",   "99999999999"};
  std::string text = "imc-communities v1\nnodes 40\n";
  for (int line = 0; line < lines; ++line) {
    const auto tokens = rng.below(8);
    for (std::uint64_t i = 0; i < tokens; ++i) {
      if (i > 0) text += ' ';
      text += kTokens[rng.below(std::size(kTokens))];
    }
    text += '\n';
  }
  return text;
}

class CommunityIoFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CommunityIoFuzzTest, SoupIsParsedOrRejectedAtItsLine) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 5);
  expect_parsed_or_rejected(random_soup(rng, 12));
}

TEST_P(CommunityIoFuzzTest, MutatedFileIsParsedOrRejectedAtItsLine) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 13);
  std::string text = valid_file(rng);
  {
    std::istringstream in(text);
    EXPECT_NO_THROW((void)read_communities(in, kNodes)) << text;
  }
  for (int hit = 0; hit < 4; ++hit) {
    // Any byte value, newlines and NULs included.
    text[rng.below(text.size())] = static_cast<char>(rng.below(256));
  }
  expect_parsed_or_rejected(text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommunityIoFuzzTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace imc
