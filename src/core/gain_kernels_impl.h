// Implementation template for ONE gain-kernel variant. This header is
// textually included by the per-variant translation units
// (gain_kernels_{scalar,avx512}.cpp), each of which is compiled with
// exactly the ISA flags its variant requires — that is what lets the
// batched loops use intrinsics without making the rest of the library
// machine-specific. The dispatcher (gain_kernels.cpp) only calls into a
// variant after __builtin_cpu_supports confirms the host.
//
// The includer must define:
//   IMC_GK_NAMESPACE  token  — variant namespace under imc::gain_detail
//   IMC_GK_NAME       string — display name ("scalar", "avx512")
//   IMC_GK_KIND       expr   — the GainKernelKind enumerator
//   IMC_GK_VECTOR     0 | 512 — batched-inner-loop width (bits)
//
// Bit-identity contract (enforced by tests/core/gain_kernel_test.cpp and
// the kernel_variants differential fuzz check): every variant produces
// results bitwise equal to the scalar variant. Integer popcounts are
// exact; the ν deltas are the same fraction-table doubles subtracted and
// accumulated per node in the same ascending-sample order; and the only
// "skipped" contributions (saturated samples, mask ⊆ covered) are exactly
// +0.0, which never changes a non-negative accumulator's bit pattern.
//
// All variants share the word-at-a-time saturation skip: the outer loop
// walks the saturation bitmap one 64-sample word at a time, so a fully
// saturated slab costs one load + one compare per 64 samples (late greedy
// rounds, where most samples are dead, become bitmap-speed scans).

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/gain_kernels.h"
#include "util/mathx.h"

#if IMC_GK_VECTOR == 512
#include <immintrin.h>
#endif

namespace imc {
namespace gain_detail {
namespace IMC_GK_NAMESPACE {
namespace {

// The strided SIMD mask loads assume the sample-arena pair layout
// {NodeId node; (pad); uint64_t mask} with the mask at byte offset 8.
using ArenaPair = std::pair<NodeId, std::uint64_t>;
static_assert(sizeof(ArenaPair) == 16, "arena pair must stay 16 bytes");
static_assert(std::is_standard_layout_v<ArenaPair>,
              "mask-offset assumption needs standard layout");
static_assert(offsetof(ArenaPair, second) == 8,
              "arena masks must sit at byte offset 8");

/// Walks samples [begin, end) in ascending order, skipping saturated ones
/// via their bitmap — one word per 64 samples, early-continue when the
/// whole word is saturated. `body(g)` runs for every live sample.
template <typename Body>
[[gnu::always_inline]] inline void for_each_live_sample(
    const std::uint64_t* saturated, std::uint32_t begin, std::uint32_t end,
    Body&& body) {
  if (begin >= end) return;
  const std::uint32_t first_word = begin >> 6;
  const std::uint32_t last_word = (end - 1) >> 6;
  for (std::uint32_t w = first_word; w <= last_word; ++w) {
    std::uint64_t live = ~saturated[w];
    if (w == first_word && (begin & 63) != 0) {
      live &= ~0ULL << (begin & 63);
    }
    if (w == last_word) {
      const std::uint32_t top = end - (w << 6);  // samples in this word
      if (top < 64) live &= (1ULL << top) - 1;
    }
    while (live != 0) {
      const std::uint32_t g =
          (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(live));
      live &= live - 1;
      body(g);
    }
  }
}

#if IMC_GK_VECTOR == 512

/// Masks of 8 consecutive arena pairs, in touch order: the odd 64-bit
/// lanes of two 512-bit loads.
[[gnu::always_inline]] inline __m512i load_arena_masks_x8(
    const ArenaPair* pairs) {
  const __m512i a = _mm512_loadu_si512(pairs);
  const __m512i b = _mm512_loadu_si512(pairs + 4);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  return _mm512_permutex2var_epi64(a, odd, b);
}

#endif  // IMC_GK_VECTOR

void accumulate_influenced(const SampleGainView& view, std::uint32_t begin,
                           std::uint32_t end, std::uint64_t* gains) {
  for_each_live_sample(view.saturated, begin, end, [&](std::uint32_t g) {
    const std::uint64_t cov = view.covered[g];
    const std::uint32_t h = view.thresholds[g];
    const std::uint64_t first = view.sample_offsets[g];
    const ArenaPair* pairs = view.sample_arena + first;
    const std::size_t count =
        static_cast<std::size_t>(view.sample_offsets[g + 1] - first);
    std::size_t i = 0;
#if IMC_GK_VECTOR == 512
    const __m512i cov_v = _mm512_set1_epi64(static_cast<long long>(cov));
    const __m512i h_v = _mm512_set1_epi64(static_cast<long long>(h));
    for (; i + 8 <= count; i += 8) {
      const __m512i counts = _mm512_popcnt_epi64(
          _mm512_or_si512(cov_v, load_arena_masks_x8(pairs + i)));
      unsigned hits = _mm512_cmpge_epu64_mask(counts, h_v);
      while (hits != 0) {
        const unsigned j = static_cast<unsigned>(__builtin_ctz(hits));
        hits &= hits - 1;
        ++gains[pairs[i + j].first];
      }
    }
#endif
    for (; i < count; ++i) {
      if (static_cast<std::uint32_t>(popcount64(cov | pairs[i].second)) >=
          h) {
        ++gains[pairs[i].first];
      }
    }
  });
}

void accumulate_nu(const SampleGainView& view, std::uint32_t begin,
                   std::uint32_t end, double* gains) {
  for_each_live_sample(view.saturated, begin, end, [&](std::uint32_t g) {
    const std::uint64_t cov = view.covered[g];
    const double* row = view.fraction_table +
                        view.thresholds[g] * (kMaxNuThreshold + 1);
    // Precomputed base fraction: row[popcount(cov)], maintained by
    // CoverageState — the per-touch work is a pure lookup-subtract.
    const double base = view.nu_base[g];
    const std::uint64_t first = view.sample_offsets[g];
    const ArenaPair* pairs = view.sample_arena + first;
    const std::size_t count =
        static_cast<std::size_t>(view.sample_offsets[g + 1] - first);
    std::size_t i = 0;
#if IMC_GK_VECTOR == 512
    // after ⊇ cov, so popcount(after) == popcount(cov) ⇔ after == cov —
    // the batched loop compares counts instead of re-deriving the union.
    const std::uint64_t base_count =
        static_cast<std::uint64_t>(popcount64(cov));
    const __m512i cov_v = _mm512_set1_epi64(static_cast<long long>(cov));
    alignas(64) std::uint64_t counts[8];
    for (; i + 8 <= count; i += 8) {
      _mm512_store_si512(
          counts, _mm512_popcnt_epi64(_mm512_or_si512(
                      cov_v, load_arena_masks_x8(pairs + i))));
      for (unsigned j = 0; j < 8; ++j) {
        if (counts[j] == base_count) continue;  // mask ⊆ covered: delta 0
        gains[pairs[i + j].first] += row[counts[j]] - base;
      }
    }
#endif
    for (; i < count; ++i) {
      const std::uint64_t after = cov | pairs[i].second;
      if (after == cov) continue;
      gains[pairs[i].first] +=
          row[static_cast<std::uint32_t>(popcount64(after))] - base;
    }
  });
}

/// One touch's ν delta: exactly +0.0 for saturated samples (the fraction
/// row is flat at 1.0 past the threshold) and for masks already covered,
/// so unconditionally accumulating the return value reproduces the
/// skip-based reference sum bit for bit.
[[gnu::always_inline]] inline double touch_nu_delta(
    const TouchGainView& view, const RicPool::Touch& touch) {
  if ((view.saturated[touch.sample >> 6] >> (touch.sample & 63)) & 1ULL) {
    return 0.0;  // dead sample: skip before the covered load can miss
  }
  const std::uint64_t before = view.covered[touch.sample];
  const std::uint64_t after = before | touch.mask;
  if (after == before) return 0.0;
  const double* row =
      view.fraction_table + touch.threshold * (kMaxNuThreshold + 1);
  return row[static_cast<std::uint32_t>(popcount64(after))] -
         row[static_cast<std::uint32_t>(popcount64(before))];
}

double marginal_nu(const TouchGainView& view,
                   const RicPool::Touch* touches, std::size_t count) {
  double gain = 0.0;
  std::size_t i = 0;
#if IMC_GK_VECTOR == 512
  // Gather-based batch: 8 touches per iteration. Lane deltas are added
  // into `gain` in lane (= touch) order, so the accumulation chain is the
  // exact left-to-right sequence the scalar loop runs. Saturated samples
  // are NOT pre-skipped here — their gathered delta is exactly +0.0 (row
  // flat at 1.0), preserving bit-identity; the gathers hide the random
  // covered[] latency the scalar path can only prefetch.
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  alignas(64) double deltas[8];
  for (; i + 8 <= count; i += 8) {
    const __m512i a = _mm512_loadu_si512(touches + i);
    const __m512i b = _mm512_loadu_si512(touches + i + 4);
    // Touch layout {u32 sample, u32 threshold, u64 mask}: even 64-bit
    // lanes hold sample | threshold << 32, odd lanes hold the mask.
    const __m512i meta = _mm512_permutex2var_epi64(a, even, b);
    const __m512i masks = _mm512_permutex2var_epi64(a, odd, b);
    const __m256i samples = _mm512_cvtepi64_epi32(meta);
    const __m512i h64 = _mm512_srli_epi64(meta, 32);
    const __m512i before =
        _mm512_i32gather_epi64(samples, view.covered, 8);
    const __m512i after = _mm512_or_si512(before, masks);
    // Row offset h * 65 == (h << 6) + h; entries are doubles (scale 8).
    const __m512i row_base =
        _mm512_add_epi64(_mm512_slli_epi64(h64, 6), h64);
    const __m512d val_before = _mm512_i64gather_pd(
        _mm512_add_epi64(row_base, _mm512_popcnt_epi64(before)),
        view.fraction_table, 8);
    const __m512d val_after = _mm512_i64gather_pd(
        _mm512_add_epi64(row_base, _mm512_popcnt_epi64(after)),
        view.fraction_table, 8);
    _mm512_store_pd(deltas, _mm512_sub_pd(val_after, val_before));
    for (unsigned j = 0; j < 8; ++j) gain += deltas[j];
  }
#endif
  const std::size_t prefetched =
      count > kCoveredPrefetchDistance ? count - kCoveredPrefetchDistance
                                       : i;
  for (; i < prefetched; ++i) {
    prefetch_read(
        &view.covered[touches[i + kCoveredPrefetchDistance].sample]);
    gain += touch_nu_delta(view, touches[i]);
  }
  for (; i < count; ++i) gain += touch_nu_delta(view, touches[i]);
  return gain;
}

}  // namespace

const GainKernelOps& ops() {
  static const GainKernelOps kOps{IMC_GK_KIND, IMC_GK_NAME,
                                  &accumulate_influenced, &accumulate_nu,
                                  &marginal_nu};
  return kOps;
}

}  // namespace IMC_GK_NAMESPACE
}  // namespace gain_detail
}  // namespace imc
