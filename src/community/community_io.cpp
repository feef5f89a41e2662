#include "community/community_io.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace imc {

namespace {

std::string at_line(std::size_t line, const std::string& what) {
  return "communities file, line " + std::to_string(line) + ": " + what;
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error(at_line(line, what));
}

/// A well-formed line that breaks a CommunitySet invariant: the same
/// exception type CommunitySet throws, but naming the line.
[[noreturn]] void fail_structure(std::size_t line, const std::string& what) {
  throw std::invalid_argument(at_line(line, what));
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::istringstream fields(line);
  std::vector<std::string> tokens;
  for (std::string token; fields >> token;) tokens.push_back(std::move(token));
  return tokens;
}

/// Parses the whole token as a T. Unsigned T rejects a sign, so a
/// negative count or id cannot wrap around.
template <typename T>
T parse_field(std::string_view token, std::size_t line, const char* what) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || stop != end) {
    fail(line, std::string("expected ") + what + ", got '" +
                   std::string(token) + "'");
  }
  return value;
}

}  // namespace

void write_communities(std::ostream& out, const CommunitySet& communities) {
  out << "imc-communities v1\n";
  out << "nodes " << communities.node_count() << "\n";
  for (CommunityId c = 0; c < communities.size(); ++c) {
    out << "community " << c << " threshold " << communities.threshold(c)
        << " benefit " << communities.benefit(c) << "\n";
    out << "members " << c;
    for (const NodeId v : communities.members(c)) out << ' ' << v;
    out << "\n";
  }
}

void save_communities(const std::string& path,
                      const CommunitySet& communities) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_communities: cannot open " + path);
  write_communities(out, communities);
  if (!out) throw std::runtime_error("save_communities: write failed");
}

CommunitySet read_communities(std::istream& in, NodeId node_count) {
  std::string line;
  std::size_t line_number = 0;

  const auto next_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_number;
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  };

  if (!next_line() || line != "imc-communities v1") {
    fail(line_number, "missing 'imc-communities v1' header");
  }
  if (!next_line()) fail(line_number, "missing 'nodes' line");
  std::vector<std::string> tokens = split_tokens(line);
  if (tokens.size() != 2 || tokens[0] != "nodes") {
    fail(line_number, "expected 'nodes <n>'");
  }
  const auto declared_nodes =
      parse_field<NodeId>(tokens[1], line_number, "a node count");
  if (declared_nodes != node_count) {
    fail(line_number, "nodes " + std::to_string(declared_nodes) +
                          " does not match the graph's " +
                          std::to_string(node_count) + " nodes");
  }

  struct Block {
    std::uint32_t threshold = 1;
    double benefit = 1.0;
    std::vector<NodeId> members;
    std::size_t header_line = 0;   // 0: no 'community' line
    std::size_t members_line = 0;  // 0: no 'members' line
  };
  std::map<CommunityId, Block> blocks;
  std::unordered_set<NodeId> assigned;

  while (next_line()) {
    tokens = split_tokens(line);
    if (tokens.empty()) continue;  // whitespace-only line
    if (tokens[0] == "community") {
      if (tokens.size() != 6 || tokens[2] != "threshold" ||
          tokens[4] != "benefit") {
        fail(line_number,
             "expected 'community <id> threshold <h> benefit <b>'");
      }
      Block& block = blocks[parse_field<CommunityId>(
          tokens[1], line_number, "a community id")];
      if (block.header_line != 0) fail(line_number, "duplicate community line");
      block.threshold =
          parse_field<std::uint32_t>(tokens[3], line_number, "a threshold");
      block.benefit = parse_field<double>(tokens[5], line_number, "a benefit");
      if (!std::isfinite(block.benefit) || block.benefit <= 0.0) {
        fail_structure(line_number, "benefit must be finite and positive");
      }
      block.header_line = line_number;
    } else if (tokens[0] == "members") {
      if (tokens.size() < 2) fail(line_number, "expected 'members <id> ...'");
      Block& block = blocks[parse_field<CommunityId>(
          tokens[1], line_number, "a community id")];
      if (block.members_line != 0) fail(line_number, "duplicate members line");
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto v = parse_field<NodeId>(tokens[i], line_number, "a node id");
        if (v >= node_count) {
          fail_structure(line_number, "member " + std::to_string(v) +
                                          " outside [0, " +
                                          std::to_string(node_count) + ")");
        }
        if (!assigned.insert(v).second) {
          fail_structure(line_number, "node " + std::to_string(v) +
                                          " already belongs to a community");
        }
        block.members.push_back(v);
      }
      block.members_line = line_number;
    } else {
      fail(line_number, "unknown keyword '" + tokens[0] + "'");
    }
  }

  std::vector<std::vector<NodeId>> groups(blocks.size());
  for (auto& [id, block] : blocks) {
    const std::size_t block_line =
        block.header_line != 0 ? block.header_line : block.members_line;
    if (id >= blocks.size()) fail(block_line, "community ids must be dense");
    if (block.members.empty()) {
      fail(block_line, "community " + std::to_string(id) + " has no members");
    }
    if (block.header_line != 0 &&
        (block.threshold == 0 || block.threshold > block.members.size())) {
      fail_structure(block.header_line,
                     "threshold " + std::to_string(block.threshold) +
                         " outside [1, " +
                         std::to_string(block.members.size()) + "]");
    }
    groups[id] = std::move(block.members);
  }
  CommunitySet communities(node_count, std::move(groups));
  for (const auto& [id, block] : blocks) {
    if (block.header_line != 0) {
      communities.set_threshold(id, block.threshold);
      communities.set_benefit(id, block.benefit);
    }
  }
  return communities;
}

CommunitySet load_communities(const std::string& path, NodeId node_count) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_communities: cannot open " + path);
  return read_communities(in, node_count);
}

}  // namespace imc
