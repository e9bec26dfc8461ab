#ifndef SPATIAL_CORE_SCRATCH_H_
#define SPATIAL_CORE_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "core/neighbor_buffer.h"
#include "geom/metrics_simd.h"
#include "obs/trace.h"
#include "rtree/entry.h"
#include "storage/disk.h"

namespace spatial {

// Reusable per-query traversal storage (see docs/PERF.md).
//
// The branch-and-bound search of the paper spends its time in two places:
// evaluating MINDIST/MINMAXDIST over a node's entries and maintaining the
// Active Branch List. Both need only storage that is bounded by tree height
// and fan-out, so one QueryScratch — owned per worker and handed to every
// query — lets steady-state query execution run without touching the heap
// at all: the arena's buffers grow to their high-water mark during the
// first queries and are reused verbatim afterwards.
//
// A QueryScratch may be shared by any number of *sequential* queries (the
// batched kNN API and the query-service workers do exactly that) but never
// by two concurrent ones. It borrows nothing; dropping it is always safe.

// Alignment of the staging buffers. 64 bytes = one cache line, and wide
// enough for any SIMD ISA the auto-vectorizer may target.
inline constexpr size_t kScratchAlignment = 64;

// Growable 64-byte-aligned array of trivially copyable elements. Contents
// are uninitialized and are *not* preserved across EnsureCapacity calls —
// this is staging memory, not a container.
template <typename T>
class AlignedArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedArray is raw staging storage");

 public:
  AlignedArray() = default;

  // Returns a pointer to at least `n` writable slots, reallocating only
  // when the high-water mark grows.
  T* EnsureCapacity(size_t n) {
    if (n > capacity_) Grow(n);
    return data_.get();
  }

  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  size_t capacity() const { return capacity_; }

 private:
  struct AlignedDelete {
    void operator()(T* p) const {
      ::operator delete(p, std::align_val_t{kScratchAlignment});
    }
  };

  void Grow(size_t n) {
    size_t cap = capacity_ == 0 ? 16 : capacity_;
    while (cap < n) cap *= 2;
    data_.reset(static_cast<T*>(
        ::operator new(cap * sizeof(T), std::align_val_t{kScratchAlignment})));
    capacity_ = cap;
  }

  std::unique_ptr<T, AlignedDelete> data_;
  size_t capacity_ = 0;
};

// One Active Branch List slot: a child subtree with its two metrics.
struct AblSlot {
  PageId child = kInvalidPageId;
  double min_dist_sq = 0.0;
  double min_max_dist_sq = 0.0;
};

// Priority-queue item of the kNN engine's best-first order (core/knn.cc):
// one *frame* of unvisited children (lazy sibling expansion, Hjaltason–
// Samet style), keyed by the exact minimum MINDIST over the frame's live
// slots [pos, end) in QueryScratch::abl. The frame is consumed by linear
// min-scans, never heap-ordered. Queueing a frame instead of its members
// keeps heap traffic at O(1) per node visit — one pop plus at most one
// successor re-push — where a per-child queue pays fan-out push_heaps for
// siblings that are mostly never expanded. Min-heap under
// std::push_heap/pop_heap; pos breaks key ties so pop order is
// deterministic per tree shape.
struct KnnFrameHeapItem {
  double dist_sq = 0.0;
  uint32_t pos = 0;
  uint32_t end = 0;

  friend bool operator<(const KnnFrameHeapItem& a, const KnnFrameHeapItem& b) {
    if (a.dist_sq != b.dist_sq) return a.dist_sq > b.dist_sq;
    return a.pos > b.pos;
  }
};

// Priority-queue entry of the best-first browse (core/geo_browse.h: the
// incremental k-NN iterator, group k-NN, reverse k-NN, NN skyline): a
// subtree keyed by MINDIST or an object keyed by its distance. Its box sits in
// QueryScratch::geo_boxes at index `box` rather than in the entry, which
// keeps heap moves at 24 bytes — carrying the 2-D box inline (56 bytes)
// made the incremental scan measurably slower. Min-heap under
// std::push_heap/pop_heap; objects win distance ties so results are
// emitted as early as possible, and id is the final tie-break so pop order
// is deterministic per tree shape.
struct GeoHeapEntry {
  double dist_sq = 0.0;
  bool is_object = false;
  uint32_t box = 0;  // index into QueryScratch::geo_boxes
  uint64_t id = 0;   // object id or child PageId

  friend bool operator<(const GeoHeapEntry& a, const GeoHeapEntry& b) {
    if (a.dist_sq != b.dist_sq) return a.dist_sq > b.dist_sq;
    if (a.is_object != b.is_object) return a.is_object < b.is_object;
    return a.id > b.id;
  }
};

// A browse entry with its box, as GeoBrowse::Next hands it out: reverse
// k-NN and the skyline need the popped box's geometry (sector assignment,
// per-source dominance tests) after the node that held it is long gone.
template <int D>
struct GeoItem {
  double dist_sq = 0.0;
  bool is_object = false;
  uint64_t id = 0;  // object id or child PageId
  Rect<D> mbr;
};

// The arena proper. Members are deliberately public: the traversals in
// core/ know the reuse discipline, and exposing the buffers keeps the hot
// path free of accessor indirection.
template <int D>
struct QueryScratch {
  // Distance outputs of the batch kernels, one slot per entry of the node
  // being evaluated. Sized via DistSlots: the SIMD kernels store whole
  // vectors, so the arrays cover the node's SoaStride, not just its entry
  // count.
  AlignedArray<double> min_dist;
  AlignedArray<double> min_max_dist;

  // SoA staging planes for the SIMD distance kernels: 2*D planes (lo/hi
  // per dimension) of SoaStride(n) doubles each, refilled per node by
  // StageSoa. Lives here so steady-state queries never allocate.
  AlignedArray<double> soa;

  // Survivor indices of the dispatched bound filter (FilterNotAboveSoa),
  // sized like the distance arrays.
  AlignedArray<uint32_t> filter_idx;

  // Child page ids of the internal node being expanded, copied out of the
  // pinned page so the pin can be dropped before descending.
  AlignedArray<uint64_t> child_ids;

  // Transposes `n` AoS entries (a NodeView's page image) into the SoA
  // planes and returns the kernel-ready view.
  SoaBlock<D> StageSoa(const Entry<D>* entries, uint32_t n) {
    const size_t stride = SoaStride(n);
    double* planes = soa.EnsureCapacity(SoaDoubles(D, n));
    TransposeToSoaDispatched<D>(entries, n, planes, stride);
    return SoaBlock<D>{planes, stride, n};
  }

  // Capacity the distance output arrays need for an n-entry node under the
  // vector kernels (full-vector stores may touch the padded tail).
  static constexpr size_t DistSlots(uint32_t n) { return SoaStride(n); }

  // Child arena of the kNN engine, in both orders. Depth-first, it is the
  // Active Branch List shared by all recursion levels with stack
  // discipline: each Visit() records the current size as its frame base,
  // appends its slots, and truncates back on exit. Best-first, it only
  // grows: each expanded node appends one frame, which knn_heap queues.
  std::vector<AblSlot> abl;
  std::vector<KnnFrameHeapItem> knn_heap;

  // Best-first browse queue (core/geo_browse.h) with its entries' boxes,
  // and the staging vectors of the reverse-kNN and NN-skyline traversals
  // (core/reverse_knn.h, core/skyline.h). geo_items stages candidates /
  // skyline members; geo_dists holds their per-source distance vectors
  // (skyline); tmp_neighbors receives the nested verification kNN answers
  // (RkNN) so the outer query never allocates in steady state.
  std::vector<GeoHeapEntry> geo_heap;
  std::vector<Rect<D>> geo_boxes;
  std::vector<uint32_t> geo_free_boxes;  // geo_boxes slots of popped entries
  std::vector<GeoItem<D>> geo_items;
  std::vector<double> geo_dists;
  std::vector<Neighbor> tmp_neighbors;

  // Candidate buffer of the kNN engine; Reset(k) re-arms it per
  // query without releasing storage.
  NeighborBuffer buffer{1};

  // Sampled-tracing hook (docs/OBSERVABILITY.md): when non-null, the
  // traversals record per-level page accesses into it. Null for every
  // untraced query — the hot path pays one pointer test per node visit
  // and allocates nothing either way. The service arms this per query;
  // standalone callers leave it null.
  obs::TraceContext* trace = nullptr;
};

}  // namespace spatial

#endif  // SPATIAL_CORE_SCRATCH_H_
