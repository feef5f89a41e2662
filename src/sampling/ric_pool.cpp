#include "sampling/ric_pool.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/mathx.h"
#include "util/thread_pool.h"

namespace imc {

namespace {

/// One sample's evaluator slot: the reached-member mask fused with its
/// epoch mark and threshold into 16 bytes, so both the accumulation sweep
/// and the reduction over dirty ids touch a single cache stream (one
/// prefetch covers all three fields, and the reduction needs no random
/// `thresholds_[id]` load).
struct CoveredSlot {
  std::uint64_t mask = 0;       // reached member mask
  std::uint32_t mark = 0;       // epoch of last write; mask valid iff == epoch
  std::uint32_t threshold = 0;  // copied from the touch that dirtied the slot
};

/// Per-thread scratch for the one-shot evaluators (c_hat/nu/
/// influenced_count). `slots[g].mask` is only meaningful when
/// `slots[g].mark == epoch`, so an evaluation costs O(Σ touches of the
/// seeds) with no O(|R|) reset — the same epoch trick RicSampler uses for
/// its visit buffers. thread_local keeps concurrent evaluations (e.g.
/// MAF's overlapped S1/S2 scoring) race-free without locking.
struct EvalScratch {
  std::vector<CoveredSlot> slots;    // per sample
  std::vector<std::uint32_t> dirty;  // samples touched this evaluation
  std::uint32_t epoch = 0;
};

EvalScratch& eval_scratch(std::uint64_t samples) {
  static thread_local EvalScratch scratch;
  if (scratch.slots.size() < samples) scratch.slots.resize(samples);
  if (++scratch.epoch == 0) {  // wraparound: every mark is stale again
    for (CoveredSlot& slot : scratch.slots) slot.mark = 0;
    scratch.epoch = 1;
  }
  scratch.dirty.clear();
  return scratch;
}

/// OR-accumulates the member masks of `seeds` into the scratch, recording
/// dirtied sample ids; returns the scratch for the caller to reduce.
EvalScratch& accumulate_masks(const RicPool& pool,
                              std::span<const NodeId> seeds) {
  EvalScratch& scratch = eval_scratch(pool.size());
  CoveredSlot* slots = scratch.slots.data();
  const std::uint32_t epoch = scratch.epoch;
  for (const NodeId v : seeds) {
    const std::span<const RicPool::Touch> touches = pool.touches_of(v);
    const std::size_t size = touches.size();
    const std::size_t prefetched =
        size > kCoveredPrefetchDistance ? size - kCoveredPrefetchDistance : 0;
    const auto body = [&](const RicPool::Touch& touch) {
      CoveredSlot& slot = slots[touch.sample];
      if (slot.mark != epoch) {
        slot.mark = epoch;
        slot.mask = 0;
        slot.threshold = touch.threshold;
        scratch.dirty.push_back(touch.sample);
      }
      slot.mask |= touch.mask;
    };
    std::size_t i = 0;
    for (; i < prefetched; ++i) {
      prefetch_write(&slots[touches[i + kCoveredPrefetchDistance].sample]);
      body(touches[i]);
    }
    for (; i < size; ++i) body(touches[i]);
  }
  return scratch;
}

}  // namespace

RicPool::RicPool(const Graph& graph, const CommunitySet& communities,
                 DiffusionModel model, ArenaBackend /*ignored*/)
    : graph_(&graph),
      communities_(&communities),
      model_(model),
      total_benefit_(communities.total_benefit()) {
  // Validate eagerly so misconfiguration surfaces at pool construction;
  // the validation sampler seeds the reuse cache instead of being thrown
  // away.
  sampler_cache_.push_back(
      std::make_unique<RicSampler>(graph, communities, model));
  touch_offsets_.assign(graph.node_count() + 1, 0);
  community_frequency_.assign(communities.size(), 0);
  sample_offsets_.assign(1, 0);
}

RicPool::RicPool(RicPool&& other) noexcept
    : graph_(other.graph_),
      communities_(other.communities_),
      model_(other.model_),
      total_benefit_(other.total_benefit_),
      grows_(other.grows_),
      repairs_(other.repairs_),
      thresholds_(std::move(other.thresholds_)),
      source_community_(std::move(other.source_community_)),
      community_frequency_(std::move(other.community_frequency_)),
      sample_offsets_(std::move(other.sample_offsets_)),
      sample_arena_(std::move(other.sample_arena_)),
      sampler_cache_(std::move(other.sampler_cache_)),
      touch_offsets_(std::move(other.touch_offsets_)),
      touches_(std::move(other.touches_)) {}

RicPool& RicPool::operator=(RicPool&& other) noexcept {
  if (this == &other) return *this;
  graph_ = other.graph_;
  communities_ = other.communities_;
  model_ = other.model_;
  total_benefit_ = other.total_benefit_;
  grows_ = other.grows_;
  repairs_ = other.repairs_;
  thresholds_ = std::move(other.thresholds_);
  source_community_ = std::move(other.source_community_);
  community_frequency_ = std::move(other.community_frequency_);
  sample_offsets_ = std::move(other.sample_offsets_);
  sample_arena_ = std::move(other.sample_arena_);
  sampler_cache_ = std::move(other.sampler_cache_);
  touch_offsets_ = std::move(other.touch_offsets_);
  touches_ = std::move(other.touches_);
  return *this;
}

void RicPool::check_capacity(std::uint64_t count) const {
  if (size() + count > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "RicPool: pool of " + std::to_string(size()) + " + " +
        std::to_string(count) +
        " samples would overflow the 32-bit sample ids the inverted index "
        "uses; split the workload across pools");
  }
}

std::unique_ptr<RicSampler> RicPool::acquire_sampler() {
  {
    const std::lock_guard<std::mutex> lock(sampler_mutex_);
    if (!sampler_cache_.empty()) {
      std::unique_ptr<RicSampler> sampler = std::move(sampler_cache_.back());
      sampler_cache_.pop_back();
      return sampler;
    }
  }
  return std::make_unique<RicSampler>(*graph_, *communities_, model_);
}

void RicPool::release_sampler(std::unique_ptr<RicSampler> sampler) {
  const std::lock_guard<std::mutex> lock(sampler_mutex_);
  sampler_cache_.push_back(std::move(sampler));
}

void RicPool::register_metadata(CommunityId community, std::uint32_t threshold,
                                std::uint64_t touch_count) {
  thresholds_.push_back(threshold);
  source_community_.push_back(community);
  ++community_frequency_[community];
  sample_offsets_.push_back(sample_offsets_.back() + touch_count);
}

void RicPool::grow(std::uint64_t count, std::uint64_t seed, bool parallel,
                   ThreadPool* workers) {
  if (count == 0) return;
  check_capacity(count);
  const std::uint64_t base = size();

  ThreadPool* pool = nullptr;
  if (parallel) {
    pool = workers != nullptr ? workers : &default_pool();
    if (pool->size() <= 1) pool = nullptr;
  }
  // Serial fast path: one part means the stitched layout IS generation
  // order, so emit straight into the pool's own sample-major arena and
  // skip the part-arena copy entirely. (This is the configuration the
  // sampling-throughput acceptance benchmark measures.)
  if (pool == nullptr) {
    std::unique_ptr<RicSampler> sampler = acquire_sampler();
    thresholds_.reserve(thresholds_.size() + count);
    source_community_.reserve(source_community_.size() + count);
    sample_offsets_.reserve(sample_offsets_.size() + count);
    for (std::uint64_t i = 0; i < count; ++i) {
      Rng rng(splitmix_of(seed, base + i));
      const RicSampleMeta meta = sampler->generate_into(rng, sample_arena_);
      register_metadata(meta.community, meta.threshold, meta.touch_count);
    }
    release_sampler(std::move(sampler));
    merge_fresh_into_index(base, 1, nullptr);
    ++grows_;
    return;
  }

  // Fixed sample-range -> part mapping (count*p/parts), so which samples
  // share a part — and therefore the stitched arena layout — depends only
  // on (count, parts), never on runtime scheduling. Combined with the
  // per-sample RNG substreams, serial and parallel growth are
  // bit-identical.
  const std::uint64_t parts = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(
             count, static_cast<std::uint64_t>(pool->size()) * 4));
  const auto part_begin = [&](std::uint64_t p) { return count * p / parts; };

  // Each part emits straight into its own arena via generate_into — no
  // intermediate RicSample objects. Samplers come from the reuse cache so
  // repeated grow() calls never reconstruct O(n) scratch.
  struct PartOutput {
    RicSampler::TouchArena touches;
    std::vector<RicSampleMeta> metas;
  };
  std::vector<PartOutput> outputs(parts);
  const auto generate_parts = [&](std::uint64_t begin, std::uint64_t end,
                                  unsigned /*chunk*/) {
    std::unique_ptr<RicSampler> sampler = acquire_sampler();
    for (std::uint64_t p = begin; p < end; ++p) {
      PartOutput& out = outputs[p];
      const std::uint64_t lo = part_begin(p);
      const std::uint64_t hi = part_begin(p + 1);
      out.metas.reserve(hi - lo);
      for (std::uint64_t i = lo; i < hi; ++i) {
        // One substream per global sample index keeps growth deterministic
        // and independent of chunking.
        Rng rng(splitmix_of(seed, base + i));
        out.metas.push_back(sampler->generate_into(rng, out.touches));
      }
    }
    release_sampler(std::move(sampler));
  };
  parallel_for(*pool, parts, generate_parts);

  // Stitch the part arenas into the sample-major arena in part order
  // (= global sample order): prefix-sum the part sizes, bulk-copy each
  // part into its slot (parallel), then append the metadata serially.
  std::vector<std::uint64_t> part_base(parts + 1, 0);
  for (std::uint64_t p = 0; p < parts; ++p) {
    part_base[p + 1] = part_base[p] + outputs[p].touches.size();
  }
  const std::uint64_t old_arena = sample_arena_.size();
  sample_arena_.resize(old_arena + part_base[parts]);
  const auto stitch_parts = [&](std::uint64_t begin, std::uint64_t end,
                                unsigned /*chunk*/) {
    for (std::uint64_t p = begin; p < end; ++p) {
      std::copy(outputs[p].touches.begin(), outputs[p].touches.end(),
                sample_arena_.begin() +
                    static_cast<std::ptrdiff_t>(old_arena + part_base[p]));
    }
  };
  parallel_for(*pool, parts, stitch_parts);

  thresholds_.reserve(thresholds_.size() + count);
  source_community_.reserve(source_community_.size() + count);
  sample_offsets_.reserve(sample_offsets_.size() + count);
  for (std::uint64_t p = 0; p < parts; ++p) {
    for (const RicSampleMeta& meta : outputs[p].metas) {
      register_metadata(meta.community, meta.threshold, meta.touch_count);
    }
  }

  // Merge the fresh batch into the CSR eagerly, so every read is a plain
  // read.
  merge_fresh_into_index(base, pool->size(), pool);
  ++grows_;
}

RicSample RicPool::sample(std::uint32_t i) const {
  if (i >= thresholds_.size()) {
    throw std::out_of_range("RicPool::sample: index out of range");
  }
  RicSample s;
  s.community = source_community_[i];
  s.threshold = thresholds_[i];
  s.member_count =
      static_cast<std::uint32_t>(communities_->population(s.community));
  const auto touches = sample_touches(i);
  s.touching.assign(touches.begin(), touches.end());
  return s;
}

void RicPool::merge_fresh_into_index(std::uint64_t fresh_begin,
                                     unsigned chunks, ThreadPool* workers) {
  const std::uint64_t fresh = size() - fresh_begin;
  if (fresh == 0) return;
  const std::uint64_t n = graph_->node_count();
  const std::uint64_t parts =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(chunks, fresh));
  // Chunk p owns the contiguous fresh sample ids [part_begin(p),
  // part_begin(p+1)) — the SAME split in the counting and scatter passes.
  const auto part_begin = [&](std::uint64_t p) {
    return fresh_begin + fresh * p / parts;
  };

  // Pass 1 — count: how many fresh touches each (chunk, node) contributes.
  std::vector<std::uint64_t> cursors(parts * n, 0);
  const auto count_range = [&](std::uint64_t begin, std::uint64_t end,
                               unsigned) {
    for (std::uint64_t p = begin; p < end; ++p) {
      std::uint64_t* counts = cursors.data() + p * n;
      for (std::uint64_t g = part_begin(p); g < part_begin(p + 1); ++g) {
        for (const auto& [node, mask] :
             sample_touches(static_cast<std::uint32_t>(g))) {
          (void)mask;
          ++counts[node];
        }
      }
    }
  };

  // Exclusive prefix-sum — runs per node as: old touches, then chunk 0's
  // fresh touches, then chunk 1's, ... Sample ids ascend within each run
  // and across runs, so the merged CSR equals the serial append order for
  // ANY chunk count: the keystone of deterministic parallel rebuilds.
  std::vector<std::uint64_t> new_offsets(n + 1, 0);
  std::vector<Touch> new_arena;
  const std::span<const std::uint64_t> old_offsets = touch_offsets_;
  const auto prefix_sum = [&] {
    std::uint64_t total = 0;
    for (std::uint64_t v = 0; v < n; ++v) {
      new_offsets[v] = total;
      std::uint64_t running =
          total + (old_offsets[v + 1] - old_offsets[v]);
      for (std::uint64_t p = 0; p < parts; ++p) {
        const std::uint64_t count = cursors[p * n + v];
        cursors[p * n + v] = running;  // becomes the chunk's write cursor
        running += count;
      }
      total = running;
    }
    new_offsets[n] = total;
    new_arena.resize(total);  // sized exactly from the counting pass
  };

  // Pass 2a — relocate each node's existing run into its new position.
  const std::span<const Touch> old_touches = touches_;
  const auto relocate_range = [&](std::uint64_t begin, std::uint64_t end,
                                  unsigned) {
    for (std::uint64_t v = begin; v < end; ++v) {
      std::copy(old_touches.begin() +
                    static_cast<std::ptrdiff_t>(old_offsets[v]),
                old_touches.begin() +
                    static_cast<std::ptrdiff_t>(old_offsets[v + 1]),
                new_arena.begin() + new_offsets[v]);
    }
  };
  // Pass 2b — scatter fresh touches at the per-(chunk, node) cursors.
  const std::span<const std::uint32_t> thresholds = thresholds_;
  const auto scatter_range = [&](std::uint64_t begin, std::uint64_t end,
                                 unsigned) {
    for (std::uint64_t p = begin; p < end; ++p) {
      std::uint64_t* cursor = cursors.data() + p * n;
      for (std::uint64_t g = part_begin(p); g < part_begin(p + 1); ++g) {
        const auto id = static_cast<std::uint32_t>(g);
        const std::uint32_t threshold = thresholds[g];
        for (const auto& [node, mask] : sample_touches(id)) {
          new_arena[cursor[node]++] = Touch{id, threshold, mask};
        }
      }
    }
  };

  if (parts > 1 && workers != nullptr) {
    parallel_for(*workers, parts, count_range);
    prefix_sum();
    if (!touches_.empty()) parallel_for(*workers, n, relocate_range);
    parallel_for(*workers, parts, scatter_range);
  } else {
    count_range(0, parts, 0);
    prefix_sum();
    if (!touches_.empty()) relocate_range(0, n, 0);
    scatter_range(0, parts, 0);
  }

  touches_ = std::move(new_arena);
  touch_offsets_ = std::move(new_offsets);
}

RicPool::SnapshotView RicPool::snapshot_view() const {
  SnapshotView view;
  view.thresholds = thresholds_;
  view.source_community = source_community_;
  view.community_frequency = community_frequency_;
  view.sample_offsets = sample_offsets_;
  view.sample_arena = sample_arena_;
  view.touch_offsets = touch_offsets_;
  view.touches = touches_;
  view.epoch = grow_epoch();
  view.model = model_;
  return view;
}

RicPool RicPool::restore_snapshot(const Graph& graph,
                                  const CommunitySet& communities,
                                  DiffusionModel model, PoolEpoch epoch,
                                  PoolArenas&& arenas) {
  RicPool pool(graph, communities, model);
  pool.thresholds_ = std::move(arenas.thresholds);
  pool.source_community_ = std::move(arenas.source_community);
  pool.community_frequency_ = std::move(arenas.community_frequency);
  pool.sample_offsets_ = std::move(arenas.sample_offsets);
  pool.sample_arena_ = std::move(arenas.sample_arena);
  pool.touch_offsets_ = std::move(arenas.touch_offsets);
  pool.touches_ = std::move(arenas.touches);
  pool.grows_ = epoch.grows;
  pool.repairs_ = epoch.repairs;
  return pool;
}

RicPool::RepairStats RicPool::invalidate_and_repair(
    const DeltaEffects& effects, std::uint64_t seed, bool parallel,
    ThreadPool* workers) {
  RepairStats stats;
  stats.total = size();
  if (effects.empty()) return stats;
  for (const NodeId v : effects.changed_in_nodes) {
    if (v >= graph_->node_count()) {
      throw std::invalid_argument(
          "RicPool::invalidate_and_repair: effects name a node outside the "
          "bound graph");
    }
  }
  for (const CommunityId c : effects.changed_communities) {
    if (c >= communities_->size()) {
      throw std::invalid_argument(
          "RicPool::invalidate_and_repair: effects name a community outside "
          "the bound set");
    }
  }

  // Revalidate the mutated structures FIRST: constructing a sampler
  // enforces the ≤64-member community cap and the LT in-weight sums, so a
  // delta the sampler cannot serve throws here with the pool untouched.
  // The probe then replaces the cache wholesale — every cached sampler
  // baked pre-delta adjacency and membership into its scratch tables.
  {
    auto probe = std::make_unique<RicSampler>(*graph_, *communities_, model_);
    const std::lock_guard<std::mutex> lock(sampler_mutex_);
    sampler_cache_.clear();
    sampler_cache_.push_back(std::move(probe));
  }

  if (stats.total == 0) {
    ++repairs_;  // future samples may differ
    return stats;
  }

  // The affected set is read off the PRE-delta index.
  // Affected = samples touching a changed in-adjacency head (their walk
  // examined that node's in-edges — see the header's identification rule)
  // ∪ samples sourced at a community whose member list moved (their mask
  // bit layout changed). Everything else replays bit-identically.
  std::vector<std::uint8_t> affected(stats.total, 0);
  for (const NodeId v : effects.changed_in_nodes) {
    for (const Touch& touch : touches_of(v)) affected[touch.sample] = 1;
  }
  if (!effects.changed_communities.empty()) {
    std::vector<std::uint8_t> moved(communities_->size(), 0);
    for (const CommunityId c : effects.changed_communities) moved[c] = 1;
    const std::span<const CommunityId> sources = source_community_;
    for (std::uint64_t g = 0; g < stats.total; ++g) {
      if (moved[sources[g]]) affected[g] = 1;
    }
  }
  std::vector<std::uint32_t> repair_ids;
  for (std::uint64_t g = 0; g < stats.total; ++g) {
    if (affected[g]) repair_ids.push_back(static_cast<std::uint32_t>(g));
  }
  stats.repaired = repair_ids.size();
  if (repair_ids.empty()) {
    ++repairs_;
    return stats;
  }

  ThreadPool* pool = nullptr;
  if (parallel) {
    pool = workers != nullptr ? workers : &default_pool();
    if (pool->size() <= 1) pool = nullptr;
  }

  // Regenerate the affected samples with their ORIGINAL substreams —
  // Rng(splitmix_of(seed, g)) is exactly what a rebuild-from-scratch
  // would feed sample g — using grow()'s fixed repair-order -> part
  // mapping so the output is independent of scheduling.
  const std::uint64_t count = repair_ids.size();
  const std::uint64_t parts =
      pool == nullptr
          ? 1
          : std::max<std::uint64_t>(
                1, std::min<std::uint64_t>(
                       count, static_cast<std::uint64_t>(pool->size()) * 4));
  const auto part_begin = [&](std::uint64_t p) { return count * p / parts; };
  struct PartOutput {
    RicSampler::TouchArena touches;
    std::vector<RicSampleMeta> metas;
  };
  std::vector<PartOutput> outputs(parts);
  const auto regenerate = [&](std::uint64_t begin, std::uint64_t end,
                              unsigned /*chunk*/) {
    std::unique_ptr<RicSampler> sampler = acquire_sampler();
    for (std::uint64_t p = begin; p < end; ++p) {
      PartOutput& out = outputs[p];
      const std::uint64_t lo = part_begin(p);
      const std::uint64_t hi = part_begin(p + 1);
      out.metas.reserve(hi - lo);
      for (std::uint64_t j = lo; j < hi; ++j) {
        Rng rng(splitmix_of(seed, repair_ids[j]));
        out.metas.push_back(sampler->generate_into(rng, out.touches));
      }
    }
    release_sampler(std::move(sampler));
  };
  if (pool == nullptr) {
    regenerate(0, parts, 0);
  } else {
    parallel_for(*pool, parts, regenerate);
  }

  // Flatten the parts (contiguous runs of repair order, so concatenation
  // IS repair order) into per-repaired-sample views for the splice.
  std::vector<const std::pair<NodeId, std::uint64_t>*> repaired_data(count);
  std::vector<const RicSampleMeta*> repaired_meta(count);
  {
    std::uint64_t j = 0;
    for (const PartOutput& out : outputs) {
      std::uint64_t offset = 0;
      for (const RicSampleMeta& meta : out.metas) {
        repaired_data[j] = out.touches.data() + offset;
        repaired_meta[j] = &meta;
        offset += meta.touch_count;
        ++j;
      }
    }
  }

  // Serial splice into a fresh sample-major arena: bulk-copy each
  // unaffected run, drop in the regenerated touches at the affected ids,
  // and overwrite the repaired samples' SoA metadata in place.
  const std::span<const std::uint64_t> old_offsets = sample_offsets_;
  const std::span<const std::pair<NodeId, std::uint64_t>> old_arena =
      sample_arena_;
  std::uint64_t new_pairs = old_arena.size();
  for (std::uint64_t j = 0; j < count; ++j) {
    const std::uint64_t r = repair_ids[j];
    new_pairs += repaired_meta[j]->touch_count -
                 (old_offsets[r + 1] - old_offsets[r]);
  }
  std::vector<std::uint64_t> new_offsets;
  new_offsets.reserve(stats.total + 1);
  new_offsets.push_back(0);
  RicSampler::TouchArena new_arena;
  new_arena.reserve(new_pairs);
  std::uint64_t run_begin = 0;
  for (std::uint64_t j = 0; j <= count; ++j) {
    const std::uint64_t run_end = j < count ? repair_ids[j] : stats.total;
    if (run_end > run_begin) {
      new_arena.insert(new_arena.end(),
                       old_arena.begin() +
                           static_cast<std::ptrdiff_t>(old_offsets[run_begin]),
                       old_arena.begin() +
                           static_cast<std::ptrdiff_t>(old_offsets[run_end]));
      for (std::uint64_t g = run_begin; g < run_end; ++g) {
        new_offsets.push_back(new_offsets.back() +
                              (old_offsets[g + 1] - old_offsets[g]));
      }
    }
    if (j == count) break;
    const RicSampleMeta& meta = *repaired_meta[j];
    new_arena.insert(new_arena.end(), repaired_data[j],
                     repaired_data[j] + meta.touch_count);
    new_offsets.push_back(new_offsets.back() + meta.touch_count);
    thresholds_[run_end] = meta.threshold;
    source_community_[run_end] = meta.community;
    run_begin = run_end + 1;
  }
  sample_offsets_ = std::move(new_offsets);
  sample_arena_ = std::move(new_arena);

  // Counters recomputed from the repaired metadata, never drifted.
  community_frequency_.assign(communities_->size(), 0);
  for (const CommunityId c : source_community_) {
    ++community_frequency_[c];
  }

  // Full CSR rebuild through the regular two-pass merge: with a zeroed
  // offset table and an empty arena, merging [0, size()) is exactly the
  // fresh-build path — byte-identical for any chunk count.
  touch_offsets_.assign(graph_->node_count() + 1, 0);
  touches_ = std::vector<Touch>();
  merge_fresh_into_index(0, pool == nullptr ? 1 : pool->size(), pool);

  ++repairs_;
  return stats;
}

std::vector<RicPool::SampleShard> RicPool::selection_shards(
    std::uint64_t samples, unsigned shards) {
  std::vector<SampleShard> out;
  if (samples == 0) return out;
  if (shards == 0) shards = 1;
  // Near-equal spans, rounded UP to whole 64-sample saturation words; the
  // rounding can only reduce the shard count, never add a runt shard.
  const std::uint64_t span = ceil_div(ceil_div(samples, shards), 64) * 64;
  out.reserve(static_cast<std::size_t>(ceil_div(samples, span)));
  for (std::uint64_t begin = 0; begin < samples; begin += span) {
    out.push_back(SampleShard{static_cast<std::uint32_t>(begin),
                              static_cast<std::uint32_t>(
                                  std::min(samples, begin + span))});
  }
  return out;
}

std::uint64_t RicPool::splitmix_of(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  return splitmix64(state);
}

IMC_POPCNT_CLONES
std::uint64_t RicPool::influenced_count(std::span<const NodeId> seeds) const {
  const EvalScratch& scratch = accumulate_masks(*this, seeds);
  std::uint64_t influenced = 0;
  for (const std::uint32_t id : scratch.dirty) {
    const CoveredSlot& slot = scratch.slots[id];
    if (static_cast<std::uint32_t>(popcount64(slot.mask)) >= slot.threshold) {
      ++influenced;
    }
  }
  return influenced;
}

double RicPool::c_hat(std::span<const NodeId> seeds) const {
  if (size() == 0) return 0.0;
  return total_benefit_ * static_cast<double>(influenced_count(seeds)) /
         static_cast<double>(size());
}

IMC_POPCNT_CLONES
double RicPool::nu(std::span<const NodeId> seeds) const {
  if (size() == 0) return 0.0;
  const EvalScratch& scratch = accumulate_masks(*this, seeds);
  const double* table = nu_fraction_row(0);
  KahanSum sum;
  for (const std::uint32_t id : scratch.dirty) {
    const CoveredSlot& slot = scratch.slots[id];
    const auto count = static_cast<std::uint32_t>(popcount64(slot.mask));
    // Table rows hold the exact min(count/h, 1) doubles: bit-identical.
    sum.add(table[slot.threshold * (kMaxNuThreshold + 1) + count]);
  }
  return total_benefit_ * sum.value() / static_cast<double>(size());
}

}  // namespace imc
