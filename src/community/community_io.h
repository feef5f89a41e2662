// Plain-text (de)serialization of CommunitySets, so detected structures can
// be saved once and reused across CLI invocations and experiments.
//
// Format (line-oriented, '#' comments):
//   imc-communities v1
//   nodes <n>
//   community <id> threshold <h> benefit <b>
//   members <id> <v1> <v2> ...
// Community blocks may appear in any order; ids must be dense [0, r).
#pragma once

#include <iosfwd>
#include <string>

#include "community/community_set.h"

namespace imc {

/// Writes the full structure (members, thresholds, benefits).
void write_communities(std::ostream& out, const CommunitySet& communities);

/// Saves to a file; throws std::runtime_error on I/O failure.
void save_communities(const std::string& path,
                      const CommunitySet& communities);

/// Parses a structure over a graph of `node_count` nodes. Throws
/// std::runtime_error naming the line on malformed input: a missing
/// header, a negative, non-numeric or out-of-range count or id, a trailing
/// token, a duplicate line, sparse community ids, a community without
/// members, or a `nodes` line that disagrees with `node_count` (rejected
/// at that line, before anything is sized by the header). Input that is well
/// formed but breaks a CommunitySet invariant (a member outside [0, n),
/// a node in two communities, a threshold outside [1, population], a
/// benefit that is not finite and positive) throws std::invalid_argument,
/// the type CommunitySet itself uses, also naming the line.
[[nodiscard]] CommunitySet read_communities(std::istream& in,
                                            NodeId node_count);

/// Loads from a file; throws std::runtime_error if unreadable, otherwise
/// as read_communities.
[[nodiscard]] CommunitySet load_communities(const std::string& path,
                                            NodeId node_count);

}  // namespace imc
