#include "sampling/pool_snapshot.h"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/mathx.h"

namespace imc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("ric pool snapshot: " + what);
}

constexpr std::size_t kHeaderBytes = 128;

std::size_t round_up_64(std::size_t bytes) {
  return (bytes + 63) & ~static_cast<std::size_t>(63);
}

/// Byte length of each section, padded position independent: sections are
/// laid out back to back, each starting on a 64-byte boundary.
struct SectionLayout {
  std::size_t bytes = 0;    // raw payload bytes
  std::size_t padded = 0;   // bytes + zero padding to the next boundary
  std::size_t offset = 0;   // absolute file offset of the raw payload
};

/// The seven sections in their fixed file order, with offsets resolved.
/// All lengths derive from the header counts — there is no section table.
struct SnapshotLayout {
  SectionLayout sections[7];
  std::size_t total_bytes = 0;

  static SnapshotLayout from_counts(std::uint64_t nodes,
                                    std::uint64_t communities,
                                    std::uint64_t samples,
                                    std::uint64_t sample_pairs,
                                    std::uint64_t csr_touches) {
    // All products and the running cursor are overflow-checked: a crafted
    // header count (e.g. 2^60 pairs) would otherwise wrap a section size
    // to a tiny value that stays self-consistent with payload_bytes while
    // disagreeing with the declared counts.
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    const auto section_bytes = [](std::uint64_t count,
                                  std::size_t element) -> std::size_t {
      if (count > (kMax - 63) / element) {
        fail("header counts overflow the section layout");
      }
      return static_cast<std::size_t>(count) * element;
    };
    const std::size_t raw[7] = {
        section_bytes(samples, sizeof(std::uint32_t)),      // thresholds
        section_bytes(samples, sizeof(CommunityId)),        // source_community
        section_bytes(communities, sizeof(std::uint32_t)),  // community_freq
        section_bytes(samples + 1, sizeof(std::uint64_t)),  // sample_offsets
        section_bytes(sample_pairs,
                      sizeof(std::pair<NodeId, std::uint64_t>)),
        section_bytes(nodes + 1, sizeof(std::uint64_t)),    // touch_offsets
        section_bytes(csr_touches, sizeof(RicPool::Touch)),  // touches
    };
    SnapshotLayout layout;
    std::size_t cursor = kHeaderBytes;
    for (int i = 0; i < 7; ++i) {
      layout.sections[i].bytes = raw[i];
      layout.sections[i].padded = round_up_64(raw[i]);
      layout.sections[i].offset = cursor;
      if (layout.sections[i].padded > kMax - cursor) {
        fail("header counts overflow the section layout");
      }
      cursor += layout.sections[i].padded;
    }
    layout.total_bytes = cursor;
    return layout;
  }
};

/// FNV-1a over the raw (unpadded) bytes of every section, in file order.
/// Padding is excluded so the digest only covers meaningful data. Takes
/// the writer's RicPool::SnapshotView or the reader's RicPool::PoolArenas
/// (same seven field names).
template <typename Sections>
std::uint64_t payload_checksum(const Sections& sections) {
  Fnv1a64 digest;
  const auto add = [&digest](const auto& arena) {
    digest.add_bytes(arena.data(), arena.size() * sizeof(*arena.data()));
  };
  add(sections.thresholds);
  add(sections.source_community);
  add(sections.community_frequency);
  add(sections.sample_offsets);
  add(sections.sample_arena);
  add(sections.touch_offsets);
  add(sections.touches);
  return digest.value();
}

void write_padded(std::ostream& out, const void* data, std::size_t bytes,
                  std::size_t padded) {
  static constexpr char kZeros[64] = {};
  if (bytes > 0) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
  }
  if (padded > bytes) {
    out.write(kZeros, static_cast<std::streamsize>(padded - bytes));
  }
}

/// FNV-1a over every header byte before the header_checksum field. The
/// struct is padding-free and exactly 128 bytes (static_assert in the
/// header), so digesting the struct's own bytes digests the file bytes.
std::uint64_t header_digest(const PoolSnapshotHeader& header) {
  Fnv1a64 digest;
  digest.add_bytes(&header, offsetof(PoolSnapshotHeader, header_checksum));
  return digest.value();
}

PoolSnapshotHeader make_header(const RicPool& pool,
                               const RicPool::SnapshotView& view) {
  PoolSnapshotHeader header;
  std::memcpy(header.magic, kPoolSnapshotMagic, sizeof(header.magic));
  header.version = kPoolSnapshotVersion;
  header.model = static_cast<std::uint32_t>(view.model);
  header.node_count = pool.graph().node_count();
  header.community_count = pool.communities().size();
  header.sample_count = view.thresholds.size();
  header.sample_pair_count = view.sample_arena.size();
  header.csr_touch_count = view.touches.size();
  header.epoch_samples = view.epoch.samples;
  header.epoch_grows = view.epoch.grows;
  header.rng_contract = kRicSamplerRngContract;
  header.graph_fingerprint = pool.graph().fingerprint();
  header.community_fingerprint = pool.communities().fingerprint();
  const SnapshotLayout layout = SnapshotLayout::from_counts(
      header.node_count, header.community_count, header.sample_count,
      header.sample_pair_count, header.csr_touch_count);
  header.payload_bytes = layout.total_bytes;
  header.payload_checksum = payload_checksum(view);
  header.epoch_repairs = view.epoch.repairs;
  header.header_checksum = header_digest(header);
  return header;
}

/// Header validation: everything that can be checked without touching
/// the arena payload.
void validate_header(const PoolSnapshotHeader& header, const Graph& graph,
                     const CommunitySet& communities) {
  if (std::memcmp(header.magic, kPoolSnapshotMagic, sizeof(header.magic)) !=
      0) {
    fail("bad magic (not an imcpool2 snapshot)");
  }
  if (header.version != kPoolSnapshotVersion) {
    fail("unsupported version " + std::to_string(header.version));
  }
  if (header.rng_contract != kRicSamplerRngContract) {
    fail("rng contract mismatch (snapshot " +
         std::to_string(header.rng_contract) + ", sampler " +
         std::to_string(kRicSamplerRngContract) + ")");
  }
  if (header.model > static_cast<std::uint32_t>(
                         DiffusionModel::kLinearThreshold)) {
    fail("unknown diffusion model tag " + std::to_string(header.model));
  }
  if (header.node_count != graph.node_count()) {
    fail("node count does not match the supplied graph");
  }
  if (header.community_count != communities.size()) {
    fail("community count does not match the supplied communities");
  }
  if (header.graph_fingerprint != graph.fingerprint()) {
    fail("graph fingerprint mismatch");
  }
  if (header.community_fingerprint != communities.fingerprint()) {
    fail("community fingerprint mismatch");
  }
  if (header.sample_count > std::numeric_limits<std::uint32_t>::max()) {
    fail("sample count exceeds the 32-bit id range");
  }
  if (header.epoch_samples != header.sample_count) {
    fail("epoch watermark disagrees with the sample count");
  }
  const SnapshotLayout layout = SnapshotLayout::from_counts(
      header.node_count, header.community_count, header.sample_count,
      header.sample_pair_count, header.csr_touch_count);
  if (header.payload_bytes != layout.total_bytes) {
    fail("declared payload size disagrees with the section counts");
  }
  // The header's own checksum runs LAST: every specific diagnosis above
  // (wrong version, fingerprint mismatch, ...) stays reachable for
  // honestly-mismatched snapshots, and only a header that passed them all
  // but was edited in place — e.g. a forged epoch — lands here.
  if (header_digest(header) != header.header_checksum) {
    fail("header checksum mismatch (tampered or corrupt header)");
  }
}

/// Structural and per-sample validation of freshly read arenas — the one
/// place these checks live (RicPool::restore_snapshot re-checks nothing).
/// Besides ranges, it enforces the invariants RicPool's readers rely on:
/// every member mask is non-empty and within the community population,
/// the touching nodes of a sample are strictly ascending (so no
/// duplicates) — the order sample() and the CSR merge assume — and the
/// community frequencies cover the community set and sum to the sample
/// count.
///
/// Both offset tables get a full endpoints + monotonicity pass BEFORE any
/// offset is used to index its arena: front == 0, back == arena size and
/// pairwise monotone together bound every span by the arena length. The
/// per-step check cannot live inside the content loop — there it would
/// only have validated the prefix scanned so far, and a hostile
/// offsets[g + 1] past the arena would be dereferenced before its own
/// monotonicity check ran. These endpoint and monotonicity checks are
/// what keep sample_touches()/touches_of() in bounds: both compute spans
/// as offsets[i + 1] - offsets[i] in unsigned arithmetic.
void validate_payload(const RicPool::PoolArenas& arenas,
                      const Graph& graph, const CommunitySet& communities) {
  const std::span<const std::uint32_t> thresholds = arenas.thresholds;
  const std::span<const CommunityId> source = arenas.source_community;
  const std::span<const std::uint64_t> offsets = arenas.sample_offsets;
  const std::span<const std::pair<NodeId, std::uint64_t>> pairs =
      arenas.sample_arena;
  if (thresholds.size() != source.size() ||
      offsets.size() != source.size() + 1) {
    fail("metadata arenas disagree on the sample count");
  }
  if (offsets.front() != 0 || offsets.back() != pairs.size()) {
    fail("sample-major offsets do not span the sample arena");
  }
  for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
    if (offsets[g] > offsets[g + 1]) {
      fail("sample " + std::to_string(g) + ": offsets not monotone");
    }
  }
  for (std::size_t g = 0; g < source.size(); ++g) {
    const CommunityId c = source[g];
    if (c >= communities.size()) {
      fail("sample " + std::to_string(g) + ": community id out of range");
    }
    if (thresholds[g] != communities.threshold(c)) {
      fail("sample " + std::to_string(g) +
           ": threshold disagrees with the community structure");
    }
    const NodeId population = communities.population(c);
    const std::uint64_t full =
        population >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << population) - 1;
    for (std::uint64_t i = offsets[g]; i < offsets[g + 1]; ++i) {
      if (pairs[i].first >= graph.node_count()) {
        fail("sample " + std::to_string(g) + ": touching node out of range");
      }
      if (i > offsets[g] && pairs[i - 1].first >= pairs[i].first) {
        fail("sample " + std::to_string(g) +
             ": touching nodes not strictly ascending");
      }
      if (pairs[i].second == 0) {
        fail("sample " + std::to_string(g) + ": empty member mask");
      }
      if ((pairs[i].second & ~full) != 0) {
        fail("sample " + std::to_string(g) +
             ": member mask wider than the community population");
      }
    }
  }
  const std::span<const std::uint64_t> touch_offsets = arenas.touch_offsets;
  const std::span<const RicPool::Touch> touches = arenas.touches;
  if (touch_offsets.size() !=
      static_cast<std::size_t>(graph.node_count()) + 1) {
    fail("csr: offsets table does not match the graph");
  }
  if (touch_offsets.front() != 0 || touch_offsets.back() != touches.size()) {
    fail("csr: touch offsets do not span the touch arena");
  }
  for (std::size_t v = 0; v + 1 < touch_offsets.size(); ++v) {
    if (touch_offsets[v] > touch_offsets[v + 1]) {
      fail("csr: touch offsets not monotone");
    }
  }
  for (std::size_t v = 0; v + 1 < touch_offsets.size(); ++v) {
    for (std::uint64_t i = touch_offsets[v]; i < touch_offsets[v + 1]; ++i) {
      const RicPool::Touch& t = touches[i];
      if (t.sample >= thresholds.size()) {
        fail("csr: touch references a sample out of range");
      }
      if (t.threshold != thresholds[t.sample]) {
        fail("csr: touch threshold disagrees with the sample metadata");
      }
      if (i > touch_offsets[v] && touches[i - 1].sample >= t.sample) {
        fail("csr: touches not strictly ordered by sample id");
      }
    }
  }
  if (arenas.community_frequency.size() != communities.size()) {
    fail("community frequency table does not match the community set");
  }
  std::uint64_t frequency_sum = 0;
  for (const std::uint32_t count : arenas.community_frequency) {
    frequency_sum += count;
  }
  if (frequency_sum != thresholds.size()) {
    fail("community frequencies do not sum to the sample count");
  }
}

/// Reads one section straight into its arena vector, then skips the
/// section's zero padding. The caller has already checked the stream
/// length against the header, so a short read means the file changed
/// underneath the load or the device failed; the diagnostic names the
/// section.
template <typename T>
void read_section(std::istream& in, const SectionLayout& section,
                  const char* name, std::vector<T>& arena) {
  arena.resize(section.bytes / sizeof(T));
  in.read(reinterpret_cast<char*>(arena.data()),
          static_cast<std::streamsize>(section.bytes));
  in.ignore(static_cast<std::streamsize>(section.padded - section.bytes));
  if (!in) fail(std::string("short read in the ") + name + " section");
}

}  // namespace

void write_ric_pool_snapshot(std::ostream& out, const RicPool& pool) {
  const RicPool::SnapshotView view = pool.snapshot_view();
  const PoolSnapshotHeader header = make_header(pool, view);
  const SnapshotLayout layout = SnapshotLayout::from_counts(
      header.node_count, header.community_count, header.sample_count,
      header.sample_pair_count, header.csr_touch_count);

  char header_block[kHeaderBytes] = {};
  std::memcpy(header_block, &header, sizeof(header));
  out.write(header_block, kHeaderBytes);

  const auto section = [&](int i, const auto& span) {
    write_padded(out, span.data(), layout.sections[i].bytes,
                 layout.sections[i].padded);
  };
  section(0, view.thresholds);
  section(1, view.source_community);
  section(2, view.community_frequency);
  section(3, view.sample_offsets);
  section(4, view.sample_arena);
  section(5, view.touch_offsets);
  section(6, view.touches);
  if (!out) fail("write failed");
}

void save_ric_pool_snapshot(const std::string& path, const RicPool& pool) {
  // Written beside `path` and renamed over it: rename() replaces `path`
  // atomically, so a crash or a failed write never leaves a truncated
  // snapshot where a good one stood.
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot open " + temp);
    try {
      write_ric_pool_snapshot(out, pool);
    } catch (...) {
      std::remove(temp.c_str());
      throw;
    }
    out.flush();
    out.close();
    if (out.fail()) {
      std::remove(temp.c_str());
      fail("write failed for " + temp);
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    fail("cannot rename " + temp + " to " + path);
  }
}

RicPool read_ric_pool_snapshot(std::istream& in, std::uint64_t stream_bytes,
                               const Graph& graph,
                               const CommunitySet& communities) {
  // Nothing is allocated until the header, its counts and the stream
  // length all agree, so a hostile header cannot request a huge arena.
  if (stream_bytes < kHeaderBytes) fail("truncated header");
  PoolSnapshotHeader header;
  if (!in.read(reinterpret_cast<char*>(&header), sizeof(header))) {
    fail("truncated header");
  }
  validate_header(header, graph, communities);
  if (stream_bytes != header.payload_bytes) {
    fail("snapshot file size disagrees with its declared payload");
  }

  const SnapshotLayout layout = SnapshotLayout::from_counts(
      header.node_count, header.community_count, header.sample_count,
      header.sample_pair_count, header.csr_touch_count);
  RicPool::PoolArenas arenas;
  read_section(in, layout.sections[0], "thresholds", arenas.thresholds);
  read_section(in, layout.sections[1], "source_community",
               arenas.source_community);
  read_section(in, layout.sections[2], "community_frequency",
               arenas.community_frequency);
  read_section(in, layout.sections[3], "sample_offsets",
               arenas.sample_offsets);
  read_section(in, layout.sections[4], "sample_arena", arenas.sample_arena);
  read_section(in, layout.sections[5], "touch_offsets", arenas.touch_offsets);
  read_section(in, layout.sections[6], "touches", arenas.touches);

  if (payload_checksum(arenas) != header.payload_checksum) {
    fail("payload checksum mismatch (corrupt snapshot)");
  }
  validate_payload(arenas, graph, communities);

  // RicPool's constructor rejects structures its sampler cannot serve
  // (e.g. a community past 64 members); report that as a load failure.
  try {
    return RicPool::restore_snapshot(
        graph, communities, static_cast<DiffusionModel>(header.model),
        RicPool::PoolEpoch{header.epoch_samples, header.epoch_grows,
                           header.epoch_repairs},
        std::move(arenas));
  } catch (const std::invalid_argument& error) {
    fail(error.what());
  }
}

RicPool attach_ric_pool_snapshot(const std::string& path, const Graph& graph,
                                 const CommunitySet& communities) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff bytes = in.tellg();
  in.seekg(0, std::ios::beg);
  if (!in || bytes < 0) fail("cannot read " + path);
  return read_ric_pool_snapshot(in, static_cast<std::uint64_t>(bytes), graph,
                                communities);
}

}  // namespace imc
