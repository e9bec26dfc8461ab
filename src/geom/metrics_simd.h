#ifndef SPATIAL_GEOM_METRICS_SIMD_H_
#define SPATIAL_GEOM_METRICS_SIMD_H_

// Runtime-dispatched SIMD distance kernels over structure-of-arrays entry
// staging (docs/PERF.md, "SIMD kernels").
//
// The scalar batch kernels in geom/metrics.h stream a node's entries in
// array-of-structs order: entry j's coordinates are interleaved with its
// id, so a vector unit would need strided gathers to put four MINDIST
// evaluations in one register. Staging the node as planes — all lo_0, then
// all hi_0, then all lo_1, ... — turns the same computation into unit-
// stride vector loads with one *entry per lane*: each lane executes
// exactly the scalar expression tree, in the same operation order, so the
// results are bit-identical to the scalar reference (enforced by
// tests/simd_kernel_test.cc, not hoped for).
//
// Kernel selection happens once per process: the highest tier supported by
// the CPU (common/cpu_features.h), the build, and the optional
// SPATIAL_FORCE_KERNEL=scalar|sse2|avx2 override (clamped to what can
// actually run, so forcing a bigger ISA than the host has degrades to the
// best available instead of faulting).

#include <cstddef>
#include <cstdint>

#include "common/cpu_features.h"
#include "common/macros.h"
#include "geom/metrics_simd_kernels.h"
#include "geom/point.h"
#include "geom/rect.h"

namespace spatial {

// Doubles per SoA plane for an n-entry node: n rounded up to a full cache
// line so every plane (and every full-vector tail read) stays 64-byte
// aligned.
constexpr size_t SoaStride(uint32_t n) {
  return (static_cast<size_t>(n) + (kSoaLane - 1)) & ~(kSoaLane - 1);
}

// Total doubles needed to stage n entries of dimension `dims`.
constexpr size_t SoaDoubles(int dims, uint32_t n) {
  return static_cast<size_t>(2 * dims) * SoaStride(n);
}

// Non-owning view of one staged node. Produced by QueryScratch::StageSoa /
// NodeView::CopyEntriesSoa; consumed by the *BatchSoa wrappers below.
template <int D>
struct SoaBlock {
  const double* planes = nullptr;  // 2*D planes of `stride` doubles
  size_t stride = 0;               // multiple of kSoaLane
  uint32_t n = 0;

  const double* lo(int d) const { return planes + (2 * d) * stride; }
  const double* hi(int d) const { return planes + (2 * d + 1) * stride; }
};

// Transposes `n` AoS elements (anything with an `mbr`, in practice
// Entry<D>) into SoA planes at `planes`/`stride`. The tail [n, stride) of
// every plane is padded by replicating the last entry so vector kernels
// can read whole vectors past n without touching uninitialized memory —
// padding lanes compute deterministic garbage that callers never read.
//
// This is the portable reference; hot paths use TransposeToSoaDispatched
// below, which routes through the per-ISA staging kernel (bit-identical
// output, enforced by simd_kernel_test).
template <int D, typename E>
inline void TransposeToSoa(const E* elems, uint32_t n, double* planes,
                           size_t stride) {
  SPATIAL_DCHECK(stride >= n && stride % kSoaLane == 0);
  for (int d = 0; d < D; ++d) {
    double* lo_plane = planes + (2 * d) * stride;
    double* hi_plane = planes + (2 * d + 1) * stride;
    for (uint32_t j = 0; j < n; ++j) {
      lo_plane[j] = elems[j].mbr.lo[d];
      hi_plane[j] = elems[j].mbr.hi[d];
    }
    const double lo_pad = n > 0 ? lo_plane[n - 1] : 0.0;
    const double hi_pad = n > 0 ? hi_plane[n - 1] : 0.0;
    for (size_t j = n; j < stride; ++j) {
      lo_plane[j] = lo_pad;
      hi_plane[j] = hi_pad;
    }
  }
}

// The tier the process-wide dispatch table resolved to:
//   min(SPATIAL_FORCE_KERNEL or CPU best, CPU best, build best).
// Computed once on first use and pinned for the process lifetime.
KernelIsa ActiveKernelIsa();

// True iff this binary contains kernels for `isa` (the AVX2 TU is only
// built on x86-64 with a capable compiler; SSE2 only on x86-64).
bool SoaKernelBuildSupports(KernelIsa isa);

// Kernel set for `dims` at exactly `isa` — no fallback; nullptr when the
// build lacks that tier or dims is outside [kSoaMinDims, kSoaMaxDims].
// Bench and tests use this to pin a tier regardless of the environment;
// callers must still check CpuSupportsKernelIsa before executing.
const SoaKernelSet* SoaKernelSetFor(int dims, KernelIsa isa);

// The dispatched set for dimension D (resolved once, at ActiveKernelIsa).
template <int D>
inline const SoaKernelSet& SoaKernels() {
  static_assert(D >= kSoaMinDims && D <= kSoaMaxDims,
                "no SoA kernels instantiated for this dimension");
  static const SoaKernelSet* const set = SoaKernelSetFor(D, ActiveKernelIsa());
  return *set;
}

// ---------------------------------------------------------------------------
// Dispatched batch kernels — the SoA counterparts of the scalar batch
// kernels in geom/metrics.h, bit-identical to them entry for entry. `out`
// (and `out_minmax`) must hold SoaStride(soa.n) doubles, 64-byte aligned:
// vector kernels store whole vectors, so up to kSoaLane - 1 padding slots
// past n are clobbered.

// out[j] = MINDIST^2(p, box_j).
template <int D>
inline void MinDistSqBatchSoa(const Point<D>& p, const SoaBlock<D>& soa,
                              double* out) {
  SoaKernels<D>().min_dist(p.coord.data(), soa.planes, soa.stride, soa.n,
                           out);
}

// out[j] = MINMAXDIST^2(p, box_j).
template <int D>
inline void MinMaxDistSqBatchSoa(const Point<D>& p, const SoaBlock<D>& soa,
                                 double* out) {
  SoaKernels<D>().min_max_dist(p.coord.data(), soa.planes, soa.stride, soa.n,
                               out);
}

// out_min[j] = MINDIST^2(p, box_j) and out_minmax[j] = MINMAXDIST^2(p,
// box_j) in one pass over the planes.
template <int D>
inline void MinAndMinMaxDistSqBatchSoa(const Point<D>& p,
                                       const SoaBlock<D>& soa, double* out_min,
                                       double* out_minmax) {
  SoaKernels<D>().min_and_min_max(p.coord.data(), soa.planes, soa.stride,
                                  soa.n, out_min, out_minmax);
}

// out[j] = ObjectDistSq(p, box_j): object distance is MBR MINDIST.
template <int D>
inline void ObjectDistSqBatchSoa(const Point<D>& p, const SoaBlock<D>& soa,
                                 double* out) {
  SoaKernels<D>().object_dist(p.coord.data(), soa.planes, soa.stride, soa.n,
                              out);
}

// Dispatched AoS -> SoA staging: the vectorized counterpart of
// TransposeToSoa. Requires E to lead with its Rect<D> (lo then hi, 2*D
// packed doubles) — true for Entry<D>, whose id trails the rect.
template <int D, typename E>
inline void TransposeToSoaDispatched(const E* elems, uint32_t n,
                                     double* planes, size_t stride) {
  static_assert(offsetof(E, mbr) == 0 &&
                    sizeof(elems->mbr) == 2 * D * sizeof(double),
                "staging kernels read elements as a leading Rect<D>");
  SoaKernels<D>().transpose(elems, sizeof(E), n, planes, stride);
}

// Writes to idx_out the indices j in [0, n), ascending, with
// !(dist[j] > bound) — the survivors of the traversal's `dist > bound`
// prune — and returns how many. `dist` must be 64-byte-aligned scratch
// (the kernels' output arrays are).
template <int D>
inline uint32_t FilterNotAboveSoa(const double* dist, uint32_t n, double bound,
                                  uint32_t* idx_out) {
  return SoaKernels<D>().filter_not_above(dist, n, bound, idx_out);
}

// out[j] = MINDIST^2(a, box_j), the rect-rect gap metric of the distance
// join. Relies on Rect<D> being two contiguous Point<D>s, i.e. 2*D packed
// doubles (static_asserted in rtree/entry.h for the on-page layout).
template <int D>
inline void MinDistSqBatchSoa(const Rect<D>& a, const SoaBlock<D>& soa,
                              double* out) {
  static_assert(sizeof(Rect<D>) == 2 * D * sizeof(double),
                "rect kernels read the query as 2*D packed doubles");
  SoaKernels<D>().rect_min_dist(a.lo.coord.data(), soa.planes, soa.stride,
                                soa.n, out);
}

}  // namespace spatial

#endif  // SPATIAL_GEOM_METRICS_SIMD_H_
