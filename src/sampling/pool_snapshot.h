// Binary RIC-pool snapshot, format v3 — the pool's one file format; the
// persisted pool IS the live pool (DESIGN.md §13). (v3 extends the v2
// layout with the epoch's repairs counter and a header checksum; the magic
// string is unchanged.)
//
// The snapshot persists the pool's flat arenas verbatim — SoA metadata,
// sample-major twin, community counters AND the CSR inverted index — so
// the one loader, `attach_ric_pool_snapshot`, reads each section straight
// into its arena vector and a restart solves without re-sampling or
// re-indexing.
//
// Layout (all integers little-endian, host-width as noted):
//
//   [0, 128)   PoolSnapshotHeader — magic "imcpool2", version, model,
//              node/community/sample counts, epoch watermark
//              {samples, grows, repairs}, RNG-contract id, graph +
//              community fingerprints, payload byte count, payload
//              checksum, header checksum (FNV-1a over the preceding 120
//              header bytes — forging any header field, including the
//              epoch, without resealing is detected).
//   sections   seven raw arena sections, each padded to a 64-byte
//              boundary, in this fixed order (lengths derive from the
//              header counts — no section table needed):
//                1. thresholds          u32  × samples
//                2. source_community    u32  × samples
//                3. community_frequency u32  × communities
//                4. sample_offsets      u64  × samples + 1
//                5. sample_arena        {u32 node, u64 mask} × pairs (16 B)
//                6. touch_offsets       u64  × nodes + 1
//                7. touches             {u32 sample, u32 threshold,
//                                        u64 mask} × csr touches (16 B)
//
// Validation contract: snapshots are untrusted input, and every load runs
// every check. Before anything is allocated, the loader checks magic,
// version, RNG contract, counts against the supplied graph/communities
// (overflow-checked through the section layout), the epoch watermark, the
// two fingerprints, the header checksum and the file size. After reading
// the sections it verifies the payload checksum and every structural and
// per-sample invariant (community ids, thresholds, node ids, masks, both
// offset tables' endpoints and monotonicity, node order within a sample,
// touch ordering, community frequencies). Endianness is not translated: a
// snapshot is portable between machines of the same byte order only.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "sampling/ric_pool.h"

namespace imc {

inline constexpr char kPoolSnapshotMagic[8] = {'i', 'm', 'c', 'p',
                                               'o', 'o', 'l', '2'};
inline constexpr std::uint32_t kPoolSnapshotVersion = 3;

/// Fixed-size on-disk header; the arena sections follow at 64-byte-aligned
/// offsets.
struct PoolSnapshotHeader {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t model = 0;  // DiffusionModel underlying value
  std::uint64_t node_count = 0;
  std::uint64_t community_count = 0;
  std::uint64_t sample_count = 0;
  std::uint64_t sample_pair_count = 0;  // sample-major arena entries
  std::uint64_t csr_touch_count = 0;    // inverted-index arena entries
  std::uint64_t epoch_samples = 0;      // PoolEpoch at save time
  std::uint64_t epoch_grows = 0;
  std::uint32_t rng_contract = 0;  // kRicSamplerRngContract of the writer
  std::uint32_t reserved = 0;
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t community_fingerprint = 0;
  std::uint64_t payload_bytes = 0;     // total snapshot size, header included
  std::uint64_t payload_checksum = 0;  // FNV-1a over the section bytes
  std::uint64_t epoch_repairs = 0;     // PoolEpoch::repairs at save time
  std::uint64_t header_checksum = 0;   // FNV-1a over the 120 bytes above
};
static_assert(sizeof(PoolSnapshotHeader) == 128,
              "header must fill its reserved 128 bytes exactly (the header "
              "checksum covers the 120 bytes before itself)");

/// Writes the v3 snapshot.
void write_ric_pool_snapshot(std::ostream& out, const RicPool& pool);

/// Saves to a file; throws std::runtime_error on I/O failure (the stream
/// is flushed and close-checked before success is reported). The file is
/// written beside `path` and renamed over it, so `path` is replaced
/// atomically: a reader sees the old snapshot or the new one, never a
/// partial write.
void save_ric_pool_snapshot(const std::string& path, const RicPool& pool);

/// Reads the snapshot at `path` into a pool that owns its arenas, after
/// every check of the validation contract above. Throws
/// std::runtime_error on any mismatch or corruption.
[[nodiscard]] RicPool attach_ric_pool_snapshot(
    const std::string& path, const Graph& graph,
    const CommunitySet& communities);

/// The stream half of attach_ric_pool_snapshot: `stream_bytes` is the
/// stream's length as the caller measured it (the file size). A stream
/// that ends before that length fails with a diagnostic naming the
/// section it ended in.
[[nodiscard]] RicPool read_ric_pool_snapshot(std::istream& in,
                                             std::uint64_t stream_bytes,
                                             const Graph& graph,
                                             const CommunitySet& communities);

}  // namespace imc
