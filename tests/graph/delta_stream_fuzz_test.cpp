// Deterministic byte-mutation fuzzing of the delta-stream parser
// (imc_cli --apply-deltas): random line soups and corrupted valid streams
// must either parse into well-formed batches or throw std::invalid_argument
// with a "delta stream line N" diagnostic — never crash, never bad_alloc.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/delta.h"
#include "util/rng.h"

namespace imc {
namespace {

/// Lines whose first token is an op: what a successful parse must have
/// turned into exactly one edge update or member move each.
std::size_t count_op_lines(const std::string& text) {
  std::istringstream stream(text);
  std::size_t ops = 0;
  for (std::string line; std::getline(stream, line);) {
    std::istringstream fields(line);
    std::string op;
    if (fields >> op && (op == "E" || op == "M")) ++ops;
  }
  return ops;
}

/// Parses `text`; on success checks the batches are structurally valid,
/// on failure that the diagnostic names its line.
void expect_parsed_or_rejected(const std::string& text) {
  try {
    const std::vector<GraphDelta> batches = parse_delta_stream(text);
    std::size_t ops = 0;
    for (const GraphDelta& batch : batches) {
      EXPECT_FALSE(batch.empty()) << "empty batch from:\n" << text;
      for (const EdgeUpdate& edge : batch.edges) {
        EXPECT_LT(edge.source, kInvalidNode);
        EXPECT_LT(edge.target, kInvalidNode);
        EXPECT_TRUE(std::isfinite(edge.weight));
      }
      for (const MemberMove& move : batch.moves) {
        EXPECT_LT(move.node, kInvalidNode);
        EXPECT_LT(move.to, kInvalidCommunity);
      }
      ops += batch.edges.size() + batch.moves.size();
    }
    EXPECT_EQ(ops, count_op_lines(text)) << "ops lost from:\n" << text;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind("delta stream line ", 0), 0U)
        << error.what();
  }
}

std::string random_soup(Rng& rng, int lines) {
  static constexpr char kAlphabet[] = "EMEM 0123456789 .-+e#x\t";
  std::string text;
  for (int line = 0; line < lines; ++line) {
    const auto length = rng.below(24);
    for (std::uint64_t i = 0; i < length; ++i) {
      text += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
    }
    text += '\n';
  }
  return text;
}

std::string valid_stream(Rng& rng) {
  std::string text = "# replay\n";
  for (int line = 0; line < 30; ++line) {
    if (rng.below(6) == 0) {
      text += '\n';  // batch boundary
    } else if (rng.below(2) == 0) {
      text += "E " + std::to_string(rng.below(50)) + " " +
              std::to_string(rng.below(50)) + " " +
              std::to_string(rng.uniform()) + "\n";
    } else {
      text += "M " + std::to_string(rng.below(50)) + " " +
              std::to_string(rng.below(8)) + "\n";
    }
  }
  return text;
}

class DeltaStreamFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaStreamFuzzTest, SoupIsParsedOrRejectedAtItsLine) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 3);
  expect_parsed_or_rejected(random_soup(rng, 40));
}

TEST_P(DeltaStreamFuzzTest, MutatedStreamIsParsedOrRejectedAtItsLine) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 11);
  std::string text = valid_stream(rng);
  EXPECT_NO_THROW((void)parse_delta_stream(text)) << text;
  for (int hit = 0; hit < 5; ++hit) {
    // Any byte value, newlines and NULs included.
    text[rng.below(text.size())] = static_cast<char>(rng.below(256));
  }
  expect_parsed_or_rejected(text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaStreamFuzzTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace imc
