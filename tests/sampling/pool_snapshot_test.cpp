#include "sampling/pool_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "community/threshold_policy.h"
#include "core/engine.h"
#include "core/maxr_solver.h"
#include "test_support.h"
#include "util/mathx.h"

namespace imc {
namespace {

struct Fixture {
  Graph graph;
  CommunitySet communities;

  Fixture() {
    graph = test::cycle_graph(12, 0.5);
    communities = test::chunk_communities(12, 3);
    apply_population_benefits(communities);
    apply_constant_thresholds(communities, 2);
  }
};

/// Full structural comparison down to the arenas — the "restored pool IS
/// the saved pool" contract, CSR index and epoch watermark included.
void expect_pools_bit_identical(const RicPool& loaded,
                                const RicPool& original) {
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.model(), original.model());
  EXPECT_EQ(loaded.grow_epoch(), original.grow_epoch());
  EXPECT_TRUE(std::equal(loaded.thresholds().begin(),
                         loaded.thresholds().end(),
                         original.thresholds().begin(),
                         original.thresholds().end()));
  EXPECT_TRUE(std::equal(loaded.source_communities().begin(),
                         loaded.source_communities().end(),
                         original.source_communities().begin(),
                         original.source_communities().end()));
  EXPECT_TRUE(std::equal(loaded.community_frequencies().begin(),
                         loaded.community_frequencies().end(),
                         original.community_frequencies().begin(),
                         original.community_frequencies().end()));
  for (std::uint32_t g = 0; g < original.size(); ++g) {
    const auto mine = loaded.sample_touches(g);
    const auto theirs = original.sample_touches(g);
    ASSERT_TRUE(
        std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end()))
        << "sample-major arena diverges at sample " << g;
  }
  ASSERT_TRUE(std::equal(loaded.touch_offsets().begin(),
                         loaded.touch_offsets().end(),
                         original.touch_offsets().begin(),
                         original.touch_offsets().end()));
  const auto arena = loaded.touch_arena();
  const auto expected = original.touch_arena();
  ASSERT_EQ(arena.size(), expected.size());
  for (std::size_t i = 0; i < arena.size(); ++i) {
    ASSERT_EQ(arena[i].sample, expected[i].sample) << "arena slot " << i;
    ASSERT_EQ(arena[i].threshold, expected[i].threshold)
        << "arena slot " << i;
    ASSERT_EQ(arena[i].mask, expected[i].mask) << "arena slot " << i;
  }
}

std::string snapshot_bytes(const RicPool& pool) {
  std::ostringstream out(std::ios::binary);
  write_ric_pool_snapshot(out, pool);
  return out.str();
}

std::string temp_snapshot(const RicPool& pool, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  save_ric_pool_snapshot(path, pool);
  return path;
}

TEST(PoolSnapshot, AttachIsBitIdentical) {
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(250, 41);
  const std::string path = temp_snapshot(original, "imc_snap_attach.bin");

  const RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  expect_pools_bit_identical(attached, original);

  const std::vector<NodeId> seeds{0, 5, 9};
  EXPECT_DOUBLE_EQ(attached.c_hat(seeds), original.c_hat(seeds));
  EXPECT_DOUBLE_EQ(attached.nu(seeds), original.nu(seeds));
  std::remove(path.c_str());
}

TEST(PoolSnapshot, LtModelTagRoundTrips) {
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities,
                   DiffusionModel::kLinearThreshold);
  original.grow(40, 9);
  const std::string path = temp_snapshot(original, "imc_snap_lt.bin");
  const RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  EXPECT_EQ(attached.model(), DiffusionModel::kLinearThreshold);
  expect_pools_bit_identical(attached, original);
  std::remove(path.c_str());
}

TEST(PoolSnapshot, SaveReportsFailureOnUnwritablePath) {
  const Fixture fixture;
  RicPool pool(fixture.graph, fixture.communities);
  pool.grow(10, 1);
  EXPECT_THROW(save_ric_pool_snapshot("/no/such/dir/pool.snap", pool),
               std::runtime_error);
}

TEST(PoolSnapshot, AttachedPoolSurvivesSnapshotFileRemoval) {
  // The attached pool owns its arenas, so it keeps serving reads after the
  // snapshot file is unlinked.
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(60, 3);
  const std::string path = temp_snapshot(original, "imc_snap_unlink.bin");
  const RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  std::remove(path.c_str());
  const std::vector<NodeId> seeds{1, 4};
  EXPECT_DOUBLE_EQ(attached.c_hat(seeds), original.c_hat(seeds));
}

TEST(PoolSnapshot, AttachedPoolSavesOverItsOwnFile) {
  // Saving a pool back over the file it was loaded from leaves the pool
  // and the rewritten file intact.
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(120, 5);
  const std::string path = temp_snapshot(original, "imc_snap_self.bin");
  const RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);

  save_ric_pool_snapshot(path, attached);
  expect_pools_bit_identical(attached, original);
  const RicPool reattached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  expect_pools_bit_identical(reattached, original);
  EXPECT_EQ(snapshot_bytes(reattached), snapshot_bytes(original));
  std::remove(path.c_str());
}

TEST(PoolSnapshot, AttachThenGrowMatchesStraightGrowth) {
  // grow() after attach must continue the RNG substream schedule exactly
  // where the saved pool stopped — so attach+grow ==
  // grow-straight-through, bit for bit.
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(150, 77);
  const std::string path = temp_snapshot(original, "imc_snap_grow.bin");

  RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  attached.grow(100, 77);

  original.grow(100, 77);
  expect_pools_bit_identical(attached, original);
  std::remove(path.c_str());
}

TEST(PoolSnapshot, RestoresEpochWatermark) {
  // The epoch watermark written at save time is restored verbatim.
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(80, 5);
  original.grow(40, 5);
  const RicPool::PoolEpoch epoch = original.grow_epoch();

  const std::string path = temp_snapshot(original, "imc_snap_epoch.bin");
  const RicPool loaded =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  EXPECT_EQ(loaded.grow_epoch(), epoch);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corrupted-file corpus: every rejection path, with its pinned diagnostic.

/// Section layout mirror (same math as the implementation) so corpus
/// entries can patch payload bytes and re-seal the checksum.
struct Layout {
  std::size_t offset[7];
  std::size_t bytes[7];
  std::size_t total = 0;  // file size the header counts declare

  explicit Layout(const PoolSnapshotHeader& header) {
    const std::size_t raw[7] = {
        header.sample_count * sizeof(std::uint32_t),
        header.sample_count * sizeof(CommunityId),
        header.community_count * sizeof(std::uint32_t),
        (header.sample_count + 1) * sizeof(std::uint64_t),
        header.sample_pair_count * sizeof(std::pair<NodeId, std::uint64_t>),
        (header.node_count + 1) * sizeof(std::uint64_t),
        header.csr_touch_count * sizeof(RicPool::Touch),
    };
    std::size_t cursor = 128;
    for (int i = 0; i < 7; ++i) {
      offset[i] = cursor;
      bytes[i] = raw[i];
      cursor += (raw[i] + 63) & ~std::size_t{63};
    }
    total = cursor;
  }
};

PoolSnapshotHeader header_of(const std::string& blob) {
  PoolSnapshotHeader header;
  std::memcpy(&header, blob.data(), sizeof(header));
  return header;
}

/// Recomputes the v3 header checksum after a test patched header fields,
/// so the corpus can target validation stages BEHIND the header seal.
void reseal_header(std::string& blob) {
  PoolSnapshotHeader header = header_of(blob);
  Fnv1a64 digest;
  digest.add_bytes(&header, offsetof(PoolSnapshotHeader, header_checksum));
  header.header_checksum = digest.value();
  std::memcpy(blob.data(), &header, sizeof(header));
}

/// Recomputes the payload checksum after a test patched section bytes, so
/// the corpus can target validation stages BEHIND the checksum gate.
/// Reseals the header too (the payload checksum lives inside it).
void reseal_checksum(std::string& blob) {
  PoolSnapshotHeader header = header_of(blob);
  const Layout layout(header);
  Fnv1a64 digest;
  for (int i = 0; i < 7; ++i) {
    digest.add_bytes(blob.data() + layout.offset[i], layout.bytes[i]);
  }
  header.payload_checksum = digest.value();
  std::memcpy(blob.data(), &header, sizeof(header));
  reseal_header(blob);
}

/// Writes `blob` to a file named after the running test.
std::string write_blob(const std::string& blob) {
  const std::string path =
      ::testing::TempDir() + "/corpus_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".bin";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  return path;
}

/// The diagnostic a verifying attach of `blob` fails with.
std::string attach_error(const Fixture& fixture, const std::string& blob) {
  const std::string path = write_blob(blob);
  std::string message;
  try {
    (void)attach_ric_pool_snapshot(path, fixture.graph,
                                   fixture.communities);
    ADD_FAILURE() << "snapshot attach accepted corrupt input";
  } catch (const std::runtime_error& error) {
    message = error.what();
  }
  std::remove(path.c_str());
  return message;
}

class PoolSnapshotCorpus : public ::testing::Test {
 protected:
  Fixture fixture_;
  std::string blob_;

  void SetUp() override {
    RicPool pool(fixture_.graph, fixture_.communities);
    pool.grow(50, 13);
    blob_ = snapshot_bytes(pool);
  }

  /// Overwrites a header field given its byte offset inside the struct.
  template <typename T>
  void patch_header(std::size_t offset, T value) {
    std::memcpy(blob_.data() + offset, &value, sizeof(value));
  }

  /// Reads / overwrites entry `i` of section `section`.
  template <typename T>
  T section_entry(int section, std::size_t i) const {
    T value{};
    std::memcpy(static_cast<void*>(&value),
                blob_.data() + Layout(header_of(blob_)).offset[section] +
                    i * sizeof(T),
                sizeof(T));
    return value;
  }
  template <typename T>
  void patch_section(int section, std::size_t i, T value) {
    std::memcpy(blob_.data() + Layout(header_of(blob_)).offset[section] +
                    i * sizeof(T),
                &value, sizeof(T));
  }
};

using Pair = std::pair<NodeId, std::uint64_t>;

TEST_F(PoolSnapshotCorpus, BadMagic) {
  blob_[0] = 'X';
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: bad magic (not an imcpool2 snapshot)");
}

TEST_F(PoolSnapshotCorpus, UnsupportedVersion) {
  patch_header<std::uint32_t>(offsetof(PoolSnapshotHeader, version), 9);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: unsupported version 9");
}

TEST_F(PoolSnapshotCorpus, RngContractMismatch) {
  patch_header<std::uint32_t>(offsetof(PoolSnapshotHeader, rng_contract),
                              kRicSamplerRngContract + 1);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: rng contract mismatch (snapshot " +
                std::to_string(kRicSamplerRngContract + 1) + ", sampler " +
                std::to_string(kRicSamplerRngContract) + ")");
}

TEST_F(PoolSnapshotCorpus, WrongGraphFingerprint) {
  // Same node count, different weights: only the fingerprint can tell.
  Fixture other;
  other.graph = test::cycle_graph(12, 0.9);
  EXPECT_EQ(attach_error(other, blob_),
            "ric pool snapshot: graph fingerprint mismatch");
}

TEST_F(PoolSnapshotCorpus, WrongCommunityFingerprint) {
  // Same communities, different thresholds — exactly the mismatch that
  // would silently poison ν/MAF if attach accepted it.
  Fixture other;
  apply_constant_thresholds(other.communities, 3);
  EXPECT_EQ(attach_error(other, blob_),
            "ric pool snapshot: community fingerprint mismatch");
}

TEST_F(PoolSnapshotCorpus, WrongNodeCount) {
  Fixture other;
  other.graph = test::cycle_graph(20, 0.5);
  other.communities = test::chunk_communities(20, 4);
  EXPECT_EQ(attach_error(other, blob_),
            "ric pool snapshot: node count does not match the supplied "
            "graph");
}

TEST_F(PoolSnapshotCorpus, EpochWatermarkDisagreesWithSampleCount) {
  patch_header<std::uint64_t>(offsetof(PoolSnapshotHeader, epoch_samples),
                              51);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: epoch watermark disagrees with the sample "
            "count");
}

TEST_F(PoolSnapshotCorpus, ForgedRepairsEpochFailsHeaderChecksum) {
  // Satellite of the dynamic-graph work (DESIGN.md §16): forging the
  // repairs counter — to pass a pre-repair snapshot off as a repaired
  // pool — must trip the header seal.
  patch_header<std::uint64_t>(offsetof(PoolSnapshotHeader, epoch_repairs),
                              7);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: header checksum mismatch (tampered or "
            "corrupt header)");

  // Resealed, the same epoch loads fine and surfaces through the pool's
  // watermark — the counter genuinely round-trips.
  reseal_header(blob_);
  const std::string path = write_blob(blob_);
  const RicPool loaded =
      attach_ric_pool_snapshot(path, fixture_.graph, fixture_.communities);
  EXPECT_EQ(loaded.grow_epoch().repairs, 7U);
  std::remove(path.c_str());
}

TEST_F(PoolSnapshotCorpus, TruncatedHeader) {
  blob_.resize(100);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: truncated header");
}

TEST_F(PoolSnapshotCorpus, TruncatedArenaSection) {
  blob_.resize(blob_.size() - 64);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: snapshot file size disagrees with its "
            "declared payload");
}

TEST_F(PoolSnapshotCorpus, TrailingGarbage) {
  blob_ += "garbage";
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: snapshot file size disagrees with its "
            "declared payload");
}

TEST_F(PoolSnapshotCorpus, FlippedPayloadByteFailsChecksum) {
  // The last byte of the last section (the CSR touches): the checksum
  // covers the payload through its end.
  const PoolSnapshotHeader header = header_of(blob_);
  const Layout layout(header);
  const std::size_t last = layout.offset[6] + layout.bytes[6] - 1;
  blob_[last] = static_cast<char>(blob_[last] ^ 0x40);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: payload checksum mismatch (corrupt "
            "snapshot)");
}

TEST_F(PoolSnapshotCorpus, OutOfRangeCommunityBehindValidChecksum) {
  // Patch a source-community entry out of range AND re-seal the checksum:
  // this must die in deep validation, not slip through as "checksum ok".
  patch_section<CommunityId>(1, 0, 7);
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample 0: community id out of range");
}

TEST_F(PoolSnapshotCorpus, TouchingNodeOutOfRangeBehindValidChecksum) {
  patch_section<NodeId>(4, 0, 99);  // > node_count = 12
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample 0: touching node out of range");
}

TEST_F(PoolSnapshotCorpus, ZeroMemberMaskBehindValidChecksum) {
  // A touch that reaches no member is never emitted by the sampler; the
  // CSR merge and the evaluators assume every stored mask is non-empty.
  Pair pair = section_entry<Pair>(4, 0);
  pair.second = 0;
  patch_section<Pair>(4, 0, pair);
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample 0: empty member mask");
}

TEST_F(PoolSnapshotCorpus, MaskWiderThanPopulationBehindValidChecksum) {
  // Communities have 3 members, so only mask bits 0..2 are members. A
  // phantom bit would be popcounted toward h_g by every evaluator.
  Pair pair = section_entry<Pair>(4, 0);
  pair.second |= 0b1000;
  patch_section<Pair>(4, 0, pair);
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample 0: member mask wider than the "
            "community population");
}

TEST_F(PoolSnapshotCorpus, UnsortedOrDuplicateTouchesBehindValidChecksum) {
  // sample() and the CSR merge rely on strictly ascending touching nodes
  // within a sample; that also rules out duplicates.
  std::uint32_t g = 0;
  while (section_entry<std::uint64_t>(3, g + 1) -
             section_entry<std::uint64_t>(3, g) <
         2) {
    ++g;
    ASSERT_LT(g, 50U) << "fixture has no sample with two touches";
  }
  const std::uint64_t begin = section_entry<std::uint64_t>(3, g);
  const Pair first = section_entry<Pair>(4, begin);
  const Pair second = section_entry<Pair>(4, begin + 1);
  const std::string expected = "ric pool snapshot: sample " +
                               std::to_string(g) +
                               ": touching nodes not strictly ascending";
  const std::string pristine = blob_;

  patch_section<Pair>(4, begin, second);  // swapped
  patch_section<Pair>(4, begin + 1, first);
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_), expected);

  blob_ = pristine;
  patch_section<Pair>(4, begin + 1, first);  // duplicated
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_), expected);
}

TEST_F(PoolSnapshotCorpus, FlippedPayloadByteFailsAttachChecksum) {
  blob_[200] = static_cast<char>(blob_[200] ^ 0x40);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: payload checksum mismatch (corrupt "
            "snapshot)");
}

TEST_F(PoolSnapshotCorpus, NonMonotoneSampleOffsetsBehindValidChecksum) {
  // offsets[1] pointing past the arena used to be dereferenced by the
  // validator itself (the monotone check ran a step too late): the
  // sample-0 content scan read pairs[0, huge) out of bounds. Now the
  // endpoints + monotonicity pre-pass rejects it before any indexing.
  patch_section<std::uint64_t>(3, 1, ~std::uint64_t{0});
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample 1: offsets not monotone");
}

TEST_F(PoolSnapshotCorpus, SampleOffsetsMustSpanTheArena) {
  // A final offset short of the arena would leave pairs unreachable (and
  // an oversized one would unbound every span): both are endpoint errors.
  const PoolSnapshotHeader header = header_of(blob_);
  patch_section<std::uint64_t>(3, header.sample_count,
                               header.sample_pair_count + 1);
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample-major offsets do not span the "
            "sample arena");
}

TEST_F(PoolSnapshotCorpus, NonMonotoneTouchOffsetsBehindValidChecksum) {
  patch_section<std::uint64_t>(5, 1, ~std::uint64_t{0});
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: csr: touch offsets not monotone");
}

TEST_F(PoolSnapshotCorpus, HugePairCountOverflowsTheLayout) {
  // A pair count of 2^60 used to wrap the section size to a small value
  // that stayed self-consistent with payload_bytes; the layout math now
  // rejects counts it cannot represent.
  patch_header<std::uint64_t>(
      offsetof(PoolSnapshotHeader, sample_pair_count), std::uint64_t{1}
                                                           << 60);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: header counts overflow the section layout");
}

TEST_F(PoolSnapshotCorpus, HugeSelfConsistentHeaderOnShortFile) {
  // 2^36 sample pairs with a payload size to match and a resealed header:
  // every header check passes, and the loader must still reject the file
  // on its size before it allocates a terabyte-sized arena.
  PoolSnapshotHeader header = header_of(blob_);
  header.sample_pair_count = std::uint64_t{1} << 36;
  header.payload_bytes = Layout(header).total;
  std::memcpy(blob_.data(), &header, sizeof(header));
  reseal_header(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: snapshot file size disagrees with its "
            "declared payload");
}

TEST_F(PoolSnapshotCorpus, ShortReadNamesTheSection) {
  // A stream that ends before the length it was measured at (a file
  // truncated during the load) fails in the section where it ended.
  const PoolSnapshotHeader header = header_of(blob_);
  const Layout layout(header);
  const std::string cut = blob_.substr(0, layout.offset[4] + 16);
  std::istringstream in(cut, std::ios::binary);
  try {
    (void)read_ric_pool_snapshot(in, header.payload_bytes, fixture_.graph,
                                 fixture_.communities);
    ADD_FAILURE() << "short stream accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "ric pool snapshot: short read in the sample_arena section");
  }
}

// ---------------------------------------------------------------------------
// Engine integration.

TEST(PoolSnapshotEngine, AttachPoolRestoresTheEngineState) {
  const Fixture fixture;
  ImcafConfig config;
  config.max_samples = 400;
  const auto solver = make_maxr_solver(MaxrAlgorithm::kUbg, {});

  // Cold engine: solve grows the pool; snapshot the result.
  ImcEngine cold(fixture.graph, fixture.communities, config);
  const ImcafResult cold_result = cold.solve(2, *solver);
  const std::string path =
      ::testing::TempDir() + "/imc_engine_attach.bin";
  save_ric_pool_snapshot(path, cold.pool());

  // Warm engine: attach the saved pool, then solve the same query. The
  // attached pool is the cold engine's final pool, so the solve sees the
  // same |R| and must pick the same seeds with the same objective.
  ImcEngine warm(fixture.graph, fixture.communities, config);
  warm.attach_pool(path);
  EXPECT_EQ(warm.pool().size(), cold.pool().size());
  const ImcafResult warm_result = warm.solve(2, *solver);
  EXPECT_EQ(warm_result.seeds, cold_result.seeds);
  EXPECT_DOUBLE_EQ(warm_result.c_hat, cold_result.c_hat);
  std::remove(path.c_str());
}

TEST(PoolSnapshotEngine, AttachPoolRejectsModelMismatch) {
  const Fixture fixture;
  RicPool lt_pool(fixture.graph, fixture.communities,
                  DiffusionModel::kLinearThreshold);
  lt_pool.grow(20, 3);
  const std::string path = ::testing::TempDir() + "/imc_engine_lt.bin";
  save_ric_pool_snapshot(path, lt_pool);

  ImcEngine engine(fixture.graph, fixture.communities, {});  // IC config
  EXPECT_THROW(engine.attach_pool(path), std::invalid_argument);
  // Failure left the engine's own pool untouched.
  EXPECT_EQ(engine.pool().size(), 0U);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imc
