#include "core/knn.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/macros.h"
#include "core/node_access.h"
#include "geom/metrics.h"
#include "geom/metrics_simd.h"
#include "rtree/node.h"

namespace spatial {

const char* AblOrderingName(AblOrdering ordering) {
  switch (ordering) {
    case AblOrdering::kMinDist:
      return "mindist";
    case AblOrdering::kMinMaxDist:
      return "minmaxdist";
    case AblOrdering::kNone:
      return "none";
  }
  return "unknown";
}

namespace {

// Relative slack applied to MINMAXDIST-based pruning (S1/S2). MINDIST of a
// descendant box and MINMAXDIST of an ancestor box can denote the same
// geometric distance yet differ by an ulp, because they are computed through
// different floating-point expression trees; without slack, strict
// comparisons can prune the branch holding the guaranteed object. Inflating
// the upper bound keeps it an upper bound, so correctness is unaffected.
// (S3 needs no slack: MINDIST(q, box) <= dist(q, object) holds in floating
// point by monotonicity of per-dimension clamping.)
constexpr double kMinMaxSlack = 1.0 + 1e-9;

// ABL orderings. Ties on the distance key are broken by child page id so
// that every traversal path (full sort, lazy selection) visits tied
// siblings in the same order — the visit-order tests rely on this
// determinism.
inline bool MinDistLess(const AblSlot& a, const AblSlot& b) {
  if (a.min_dist_sq != b.min_dist_sq) return a.min_dist_sq < b.min_dist_sq;
  return a.child < b.child;
}
inline bool MinMaxDistLess(const AblSlot& a, const AblSlot& b) {
  if (a.min_max_dist_sq != b.min_max_dist_sq) {
    return a.min_max_dist_sq < b.min_max_dist_sq;
  }
  return a.child < b.child;
}

// Truncates the shared ABL arena back to this recursion level's base on
// every exit path (shrinking never allocates).
struct AblFrame {
  std::vector<AblSlot>* arena;
  size_t base;
  ~AblFrame() { arena->resize(base); }
};

// The kNN engine: the paper's branch-and-bound with two visit orders,
// generic over the node-access policy (core/node_access.h) so one engine
// serves both tiers with bit-identical answers and visit order. Both
// orders share the bound pair, the node expansion with its accounting and
// the fused leaf pass; they differ only in which pending branch is
// expanded next:
//
//  - Depth-first: the paper's ordered search — recursion over an Active
//    Branch List in one of three orderings, with S1/S2/S3.
//  - Best-first: a global frontier in ascending-MINDIST order (the E8
//    comparator, and the approximate search). Epsilon and the visit budget
//    need the *global* order to bite: the relaxed cutoff is final the
//    moment the frontier's minimum exceeds bound/(1+eps)^2, with no
//    depth-first verification tail, and a budget buys the globally most
//    promising nodes instead of a depth-first prefix of the first subtree
//    (whose recall collapses, measured in E21). S1/S2 are MINMAXDIST
//    descent heuristics of the depth-first shape and are not consulted.
//
// kObserved selects the instrumented instantiation: stats accumulation,
// trace counting, and visit recording all compile away when the caller
// passed none of them (the steady-state serving shape), instead of costing
// a dozen predictable-but-present branches per visit. Both instantiations
// run the identical search — observation never feeds back into pruning.
//
// A non-null `window` makes this the constrained search (docs/QUERIES.md):
// right after the bound filter, every child and leaf object whose MBR
// misses the window is dropped. That costs one pointer test per node visit
// when there is no window. Only the depth-first order takes one.
template <int D, class Access, bool kObserved>
class KnnEngine {
 public:
  KnnEngine(const Access& access, const Point<D>& query,
            const KnnOptions& options, const Rect<D>* window,
            QueryScratch<D>* scratch, QueryStats* stats)
      : access_(access),
        query_(query),
        options_(options),
        window_(window),
        scratch_(scratch),
        stats_(stats),
        // S1/S2 depend on MINMAXDIST bounding a *single* object, so they
        // are sound only for k = 1 — and only without a window, since the
        // object MINMAXDIST promises may lie outside it.
        s1_active_(options.use_s1 && options.k == 1 && window == nullptr),
        s2_active_(options.use_s2 && options.k == 1 && window == nullptr),
        // Under MINDIST ordering the ABL is consumed in ascending-MINDIST
        // order until the bound kills the rest, so entries are selected
        // lazily (min-scan per visited child) instead of fully sorted.
        // Selection order equals sorted order (ties broken by page id in
        // both), and the prune bound only ever tightens, so the moment the
        // remaining minimum exceeds it every remaining entry is dead —
        // exactly the set the sorted loop would skip. The traversal is
        // therefore unchanged for every k.
        lazy_select_(options.ordering == AblOrdering::kMinDist &&
                     !options.force_full_sort),
        // inf * inf == inf, so an unbounded search still seeds at +inf.
        max_dist_sq_(options.max_distance * options.max_distance),
        // At epsilon = 0 this is exactly 1.0, and bound * 1.0 == bound
        // bitwise for every finite double and +-inf, so the exact path is
        // unchanged — no branch needed.
        relax_sq_(1.0 /
                  ((1.0 + options.epsilon) * (1.0 + options.epsilon))) {}

  Status Run(bool best_first, std::vector<Neighbor>* out, bool append) {
    scratch_->buffer.Reset(options_.k);
    scratch_->abl.clear();
    SPATIAL_RETURN_IF_ERROR(best_first ? BestFirst()
                                       : Visit(access_.root_page()));
    scratch_->buffer.ExtractSorted(out, append);
    return Status::OK();
  }

 private:
  // The frontier is lazy (Hjaltason–Samet sibling expansion): an expanded
  // node's surviving children are appended to the `abl` arena as one
  // frame behind a single knn_heap entry keyed by their minimum MINDIST,
  // and the arena only grows during the search. heap_pushes counts every
  // node entered into the frontier (root and direct-descent slot
  // included), heap_pops every node taken off it.
  Status BestFirst() {
    std::vector<KnnFrameHeapItem>& heap = scratch_->knn_heap;
    heap.clear();
    // Direct-descent slot: an expanded node's best child usually beats the
    // current heap minimum (keys only grow downward), so it is handed to
    // the next iteration here instead of round-tripping through the heap.
    // Best-first order is preserved exactly — the slot is only armed when
    // its key is <= the heap minimum, so it *is* the global minimum (and
    // stays so: everything pushed while it is armed keys at or above it
    // by MBR containment).
    bool has_next = true;
    AblSlot next{access_.root_page(), 0.0, 0.0};
    if constexpr (kObserved) {
      if (stats_ != nullptr) ++stats_->heap_pushes;
    }
    for (uint64_t visits = 0;
         options_.max_visits == 0 || visits < options_.max_visits;
         ++visits) {
      AblSlot slot;
      if (has_next) {
        slot = next;
        has_next = false;
        // The key is a lower bound on every remaining subtree, so one
        // relaxed-bound comparison terminates the whole search.
        if (slot.min_dist_sq > PruneBoundSq()) break;
      } else if (!heap.empty()) {
        // A frame's key is the exact minimum over its live children, so
        // the same single comparison terminates before the frame is even
        // resolved.
        const KnnFrameHeapItem top = heap.front();
        if (top.dist_sq > PruneBoundSq()) break;
        std::pop_heap(heap.begin(), heap.end());
        heap.pop_back();
        // Resolve the frame: one scan finds the minimum child (the node to
        // visit) and the runner-up key, which re-keys the successor frame.
        AblSlot* slots = scratch_->abl.data();
        uint32_t m1 = top.pos;
        double min2 = std::numeric_limits<double>::infinity();
        for (uint32_t i = top.pos + 1; i < top.end; ++i) {
          if (MinDistLess(slots[i], slots[m1])) {
            min2 = slots[m1].min_dist_sq;
            m1 = i;
          } else if (slots[i].min_dist_sq < min2) {
            min2 = slots[i].min_dist_sq;
          }
        }
        slot = slots[m1];
        if (top.pos + 1 < top.end) {
          std::swap(slots[m1], slots[top.pos]);
          heap.push_back(KnnFrameHeapItem{min2, top.pos + 1, top.end});
          std::push_heap(heap.begin(), heap.end());
        }
      } else {
        break;
      }
      if constexpr (kObserved) {
        if (stats_ != nullptr) ++stats_->heap_pops;
      }
      SPATIAL_RETURN_IF_ERROR(Frontier(slot.child, &has_next, &next));
    }
    return Status::OK();
  }

  // Current pruning bound for *descent*: actual k-th nearest distance (S3)
  // combined with the MINMAXDIST-based estimate (S2). Branches at MINDIST
  // strictly above the bound cannot improve the result. The bound is
  // seeded at max_distance^2 (distance-bounded kNN; +inf when unbounded)
  // and the final value is relaxed by 1/(1+epsilon)^2 (approximate kNN):
  // every object inside a skipped subtree satisfies
  // dist^2 >= mindist^2 > bound_at_skip * relax_sq, and bound_at_skip
  // never goes below the final k-th answer distance, which yields the
  // per-answer contract r_i <= (1+epsilon) * t_i. The best-first order
  // never updates the S2 estimate, so it stays +inf there.
  double PruneBoundSq() const { return ObjectBoundSq() * relax_sq_; }

  // Object-level bound: the same combination *without* the epsilon
  // relaxation. Leaf objects have their exact distances in hand by the
  // time they are filtered (the kernel computes all of them in one plane
  // pass), so discarding one under the relaxed bound would give up answer
  // quality without saving any work. The relaxation therefore gates only
  // descent decisions (PruneBoundSq above); within every visited leaf the
  // buffer keeps the genuinely best objects. The (1+epsilon) contract is
  // untouched — its proof only concerns subtrees that were never entered —
  // and at epsilon = 0 the two bounds are bitwise identical.
  double ObjectBoundSq() const {
    double bound = max_dist_sq_;
    if (options_.use_s3) bound = std::min(bound, scratch_->buffer.WorstDistSq());
    if (s2_active_) bound = std::min(bound, estimate_sq_);
    return bound;
  }

  // Compacts the survivors idx[0, kept) to the entries whose MBR meets the
  // window (Rect::Intersects: closed intervals), keeping their order, and
  // returns how many remain. The window is a predicate, not a bound, so
  // the entries it drops are charged to no prune counter. Kept out of line
  // so the windowless visit loops compile as they did without it.
  [[gnu::noinline]] uint32_t WindowFilter(const SoaBlock<D>& soa,
                                          uint32_t* idx,
                                          uint32_t kept) const {
    const Rect<D>& w = *window_;
    uint32_t out = 0;
    for (uint32_t j = 0; j < kept; ++j) {
      const uint32_t i = idx[j];
      bool meets = true;
      for (int d = 0; d < D; ++d) {
        if (w.hi[d] < soa.lo(d)[i] || w.lo[d] > soa.hi(d)[i]) {
          meets = false;
          break;
        }
      }
      if (meets) idx[out++] = i;
    }
    return out;
  }

  // Fetches one node through the access policy and charges the visit.
  Status Expand(PageId node_id, typename Access::Node* storage,
                const typename Access::Node** node) {
    SPATIAL_RETURN_IF_ERROR(access_.Expand(node_id, scratch_, storage, node));
    if constexpr (kObserved) {
      if (stats_ != nullptr) {
        ++stats_->nodes_visited;
        if ((*node)->is_leaf()) {
          ++stats_->leaf_nodes_visited;
        } else {
          ++stats_->internal_nodes_visited;
        }
      }
      if (obs::TraceContext* t = scratch_->trace) t->CountNode((*node)->level);
      if (options_.visit_trace != nullptr) {
        options_.visit_trace->push_back(node_id);
      }
    }
    return Status::OK();
  }

  void VisitLeaf(const typename Access::Node& node) {
    // Object distances through the dispatched SoA kernel over the node's
    // planes — staged per visit by the paged backend, precomputed at
    // compile time by the resident one. Distance evaluation and the entry-
    // bound prefilter are fused into one plane pass: the kernel emits the
    // same distance array and the same ascending survivor set the separate
    // compute + FilterNotAboveSoa passes produced (every index it drops
    // would fail the in-loop test below as well, since the bound only
    // tightens from here), without re-streaming the finished array.
    const uint32_t n = node.count;
    const auto& soa = NodeSoa(node);
    double* dist =
        scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    NeighborBuffer& buffer = scratch_->buffer;
    // The bound only tightens when an offer is kept, so it is hoisted out
    // of the loop and refreshed on that event alone. Objects compete at
    // the unrelaxed bound (see ObjectBoundSq).
    double bound_sq = ObjectBoundSq();
    uint32_t* idx =
        scratch_->filter_idx.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    uint32_t kept = ks_.min_dist_filter(query_.coord.data(), soa.planes,
                                        soa.stride, soa.n, bound_sq, dist,
                                        idx);
    if constexpr (kObserved) {
      if (stats_ != nullptr) {
        stats_->objects_examined += n;
        stats_->distance_computations += n;
        stats_->pruned_leaf += n - kept;
      }
    }
    if (window_ != nullptr) kept = WindowFilter(soa, idx, kept);
    for (uint32_t j = 0; j < kept; ++j) {
      const uint32_t i = idx[j];
      // An entry already beyond the (now possibly tighter) prune bound
      // cannot enter the answer; skipping it avoids the buffer's sift work.
      if (dist[i] > bound_sq) {
        if constexpr (kObserved) {
          if (stats_ != nullptr) ++stats_->pruned_leaf;
        }
        continue;
      }
      if (buffer.Offer(node.id(i), dist[i])) bound_sq = ObjectBoundSq();
    }
  }

  // One depth-first step: expands `node_id` and recurses into its
  // children in ABL order.
  Status Visit(PageId node_id) {
    typename Access::Node storage;
    const typename Access::Node* node_ptr = nullptr;
    SPATIAL_RETURN_IF_ERROR(Expand(node_id, &storage, &node_ptr));
    const typename Access::Node& node = *node_ptr;
    const uint32_t n = node.count;
    if (n == 0) return Status::OK();

    if (node.is_leaf()) {
      VisitLeaf(node);
      return Status::OK();
    }

    // Internal node: the planes and the dense child-id column are ready
    // (Expand already dropped any pin), so go straight to the metrics.
    // Evaluate them for all children in one pass. MINMAXDIST is needed
    // only by S1/S2 and by the MINMAXDIST ordering; when it is, the fused
    // kernel produces both metrics from a single traversal of the planes.
    const uint64_t* child_ids = node.dense_ids();
    const auto& soa = NodeSoa(node);
    double* dmin =
        scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    uint32_t* idx =
        scratch_->filter_idx.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    const bool minmax_ordering =
        options_.ordering == AblOrdering::kMinMaxDist;
    const bool need_minmax = s1_active_ || s2_active_ || minmax_ordering;
    // Three single-pass shapes, picked by who consumes what:
    //  - S1/S2 under MINDIST ordering (the k == 1 hot path) only ever reads
    //    the *minimum* MINMAXDIST, so the fused reduce kernel returns that
    //    scalar directly and the per-entry array is never materialized. The
    //    reduced min is bit-identical to std::min over the array the fused
    //    kernel would have written (min over an identical value set).
    //  - MINMAXDIST ordering needs the per-entry array for the sort, so it
    //    keeps the two-array fused kernel (+ scalar reduce when S1/S2 also
    //    want the min).
    //  - Neither active: MINDIST and the S3 bound prefilter fuse into one
    //    pass; the survivor set matches compute-then-FilterNotAboveSoa
    //    exactly (PruneBoundSq cannot tighten mid-node — no offers happen
    //    between here and the filter in the unfused form).
    double* dminmax = nullptr;
    double min_minmax = std::numeric_limits<double>::infinity();
    bool prefiltered = false;
    uint32_t kept = 0;
    if ((s1_active_ || s2_active_) && !minmax_ordering) {
      min_minmax = ks_.min_dist_min_minmax(query_.coord.data(), soa.planes,
                                           soa.stride, soa.n, dmin);
    } else if (need_minmax) {
      dminmax =
          scratch_->min_max_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
      ks_.min_and_min_max(query_.coord.data(), soa.planes, soa.stride, soa.n,
                          dmin, dminmax);
      if (s1_active_ || s2_active_) {
        for (uint32_t i = 0; i < n; ++i) {
          min_minmax = std::min(min_minmax, dminmax[i]);
        }
      }
    } else {
      kept = ks_.min_dist_filter(query_.coord.data(), soa.planes, soa.stride,
                                 soa.n, PruneBoundSq(), dmin, idx);
      prefiltered = true;
    }
    if constexpr (kObserved) {
      if (stats_ != nullptr) {
        stats_->abl_entries_generated += n;
        stats_->distance_computations += need_minmax ? 2 * uint64_t{n} : n;
      }
    }

    // Strategy 1 filters with the vector kernel and pushes only the
    // surviving slots (`<= bound` is exactly `!(> bound)` for these
    // never-NaN distances, and the filter preserves index order, so the ABL
    // contents match the old push-all-then-compact loop bit for bit). The
    // slot's min_max_dist_sq is only read under MINMAXDIST ordering — the
    // one case where the per-entry array exists — so the reduce-only path
    // stores 0.0 there without changing any comparison.
    std::vector<AblSlot>& abl = scratch_->abl;
    AblFrame frame{&abl, abl.size()};
    const size_t base = frame.base;
    bool pushed = false;
    if (s1_active_ || s2_active_) {
      if (s1_active_) {
        // Strategy 1: some sibling is guaranteed to contain an object at
        // distance <= min_minmax; branches strictly beyond it are dead.
        const double s1_bound = min_minmax * kMinMaxSlack;
        kept = ks_.filter_not_above(dmin, n, s1_bound, idx);
        if constexpr (kObserved) {
          if (stats_ != nullptr) stats_->pruned_s1 += n - kept;
        }
        for (uint32_t j = 0; j < kept; ++j) {
          const uint32_t i = idx[j];
          abl.push_back(AblSlot{static_cast<PageId>(child_ids[i]), dmin[i],
                                dminmax != nullptr ? dminmax[i] : 0.0});
        }
        pushed = true;
      }
      if (s2_active_ && min_minmax * kMinMaxSlack < estimate_sq_) {
        // Strategy 2: tighten the NN distance estimate.
        estimate_sq_ = min_minmax * kMinMaxSlack;
        if constexpr (kObserved) {
          if (stats_ != nullptr) ++stats_->estimate_updates_s2;
        }
      }
    }
    if (!pushed) {
      // Strategy-3 prefilter: a child at MINDIST beyond the current bound
      // can never be descended — the bound only tightens from here, and
      // every consumption loop below rechecks it — so such children skip
      // the ABL entirely and are charged to pruned_s3 now instead of when
      // the consumption loop would have reached them. Same visits, same
      // counts, but the selection scan and sort touch only live slots.
      if (!prefiltered) {
        kept = ks_.filter_not_above(dmin, n, PruneBoundSq(), idx);
      }
      if constexpr (kObserved) {
        if (stats_ != nullptr) stats_->pruned_s3 += n - kept;
      }
      // S1/S2 are off under a window, so a constrained search always
      // reaches this branch.
      if (window_ != nullptr) kept = WindowFilter(soa, idx, kept);
      for (uint32_t j = 0; j < kept; ++j) {
        const uint32_t i = idx[j];
        abl.push_back(AblSlot{static_cast<PageId>(child_ids[i]), dmin[i],
                              dminmax != nullptr ? dminmax[i] : 0.0});
      }
    }
    const size_t m = abl.size() - base;
    // The surviving children are about to be visited in MINDIST order;
    // start pulling their arena records into cache so the selection scan
    // below overlaps the memory latency. Compiles away for paged access.
    for (size_t i = 0; i < m; ++i) access_.Prefetch(abl[base + i].child);

    if (lazy_select_) {
      // Consume children in MINDIST order by scanning the frame for the
      // remaining minimum each round, visiting until that minimum exceeds
      // the bound — at that point *every* remaining child exceeds it.
      // Selection order equals heap-pop order equals sorted order (ties
      // broken by page id in all three, and the scan compares the whole
      // remaining set, so its result is independent of slot order), but at
      // node fan-outs the scan beats a heap: the bound usually kills the
      // descent after a handful of children, and the scan writes nothing,
      // where make_heap shuffles 24-byte slots even for children that are
      // never visited.
      size_t live = m;
      while (live > 0) {
        // Recompute the frame pointer each round: recursion below may grow
        // (and reallocate) the arena past this frame.
        AblSlot* slots = abl.data() + base;
        size_t best = 0;
        for (size_t i = 1; i < live; ++i) {
          if (MinDistLess(slots[i], slots[best])) best = i;
        }
        const AblSlot slot = slots[best];
        if (slot.min_dist_sq > PruneBoundSq()) {
          if constexpr (kObserved) {
            if (stats_ != nullptr) {
              stats_->pruned_s3 += static_cast<uint64_t>(live);
            }
          }
          break;
        }
        slots[best] = slots[--live];  // unordered remove; the set survives
        SPATIAL_RETURN_IF_ERROR(Visit(slot.child));
      }
      return Status::OK();
    }

    // The comparators are wrapped in lambdas so std::sort instantiates on a
    // unique inlinable closure type; passing the functions themselves would
    // make every comparison an indirect call through a function pointer.
    switch (options_.ordering) {
      case AblOrdering::kMinDist:
        std::sort(abl.begin() + base, abl.end(),
                  [](const AblSlot& a, const AblSlot& b) {
                    return MinDistLess(a, b);
                  });
        break;
      case AblOrdering::kMinMaxDist:
        std::sort(abl.begin() + base, abl.end(),
                  [](const AblSlot& a, const AblSlot& b) {
                    return MinMaxDistLess(a, b);
                  });
        break;
      case AblOrdering::kNone:
        break;
    }

    // Recurse in ABL order, re-testing the bound after every return
    // (strategy 3 / upward pruning).
    for (size_t i = 0; i < m; ++i) {
      const AblSlot slot = abl[base + i];  // copy: recursion moves the arena
      if (slot.min_dist_sq > PruneBoundSq()) {
        if constexpr (kObserved) {
          if (stats_ != nullptr) ++stats_->pruned_s3;
        }
        continue;
      }
      SPATIAL_RETURN_IF_ERROR(Visit(slot.child));
    }
    return Status::OK();
  }

  // One best-first step: expands `node_id`; an internal node's children
  // within the relaxed bound join the frontier and the rest are pruned now
  // (they could only be re-tested against an even tighter bound later).
  Status Frontier(PageId node_id, bool* has_next, AblSlot* next) {
    typename Access::Node storage;
    const typename Access::Node* node_ptr = nullptr;
    SPATIAL_RETURN_IF_ERROR(Expand(node_id, &storage, &node_ptr));
    const typename Access::Node& node = *node_ptr;
    const uint32_t n = node.count;
    if (n == 0) return Status::OK();
    if (node.is_leaf()) {
      VisitLeaf(node);
      return Status::OK();
    }

    const uint64_t* child_ids = node.dense_ids();
    const auto& soa = NodeSoa(node);
    double* dist =
        scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    uint32_t* idx =
        scratch_->filter_idx.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    const uint32_t kept = ks_.min_dist_filter(query_.coord.data(), soa.planes,
                                              soa.stride, soa.n,
                                              PruneBoundSq(), dist, idx);
    if constexpr (kObserved) {
      if (stats_ != nullptr) {
        stats_->abl_entries_generated += n;
        stats_->distance_computations += n;
        stats_->pruned_s3 += n - kept;
        stats_->heap_pushes += kept;
      }
    }
    if (kept == 0) return Status::OK();
    // The best child goes to the direct-descent slot when it is already at
    // or below the heap minimum (tie goes to descent — equal keys may be
    // expanded in either order without affecting any bound); its siblings
    // become one frame.
    uint32_t best = idx[0];
    for (uint32_t j = 1; j < kept; ++j) {
      const uint32_t i = idx[j];
      if (dist[i] < dist[best] ||
          (dist[i] == dist[best] && child_ids[i] < child_ids[best])) {
        best = i;
      }
    }
    std::vector<KnnFrameHeapItem>& heap = scratch_->knn_heap;
    std::vector<AblSlot>& abl = scratch_->abl;
    const bool descend = heap.empty() || !(heap.front().dist_sq < dist[best]);
    const uint32_t start = static_cast<uint32_t>(abl.size());
    double frame_min = std::numeric_limits<double>::infinity();
    for (uint32_t j = 0; j < kept; ++j) {
      const uint32_t i = idx[j];
      if (descend && i == best) continue;
      if (dist[i] < frame_min) frame_min = dist[i];
      abl.push_back(AblSlot{static_cast<PageId>(child_ids[i]), dist[i], 0.0});
    }
    if (abl.size() > start) {
      heap.push_back(KnnFrameHeapItem{frame_min, start,
                                      static_cast<uint32_t>(abl.size())});
      std::push_heap(heap.begin(), heap.end());
    }
    if (descend) {
      *has_next = true;
      *next = AblSlot{static_cast<PageId>(child_ids[best]), dist[best], 0.0};
    }
    return Status::OK();
  }

  const Access access_;
  const Point<D> query_;
  const KnnOptions options_;
  const Rect<D>* const window_;  // null: plain kNN
  QueryScratch<D>* scratch_;
  QueryStats* stats_;
  // The dispatched kernel set, resolved once per search: the per-call
  // wrappers in metrics_simd.h re-read a function-local static behind an
  // init guard, which a traversal making several kernel calls per visit
  // has no reason to pay.
  const SoaKernelSet& ks_ = SoaKernels<D>();
  const bool s1_active_;
  const bool s2_active_;
  const bool lazy_select_;
  const double max_dist_sq_;
  const double relax_sq_;
  double estimate_sq_ = std::numeric_limits<double>::infinity();
};

// An active approximation knob selects the best-first order; zero-knob
// searches take the paper's depth-first order.
inline bool Approximate(const KnnOptions& options) {
  return options.epsilon > 0.0 || options.max_visits != 0;
}

template <int D, class Access, bool kObserved>
Status RunKnn(const Access& access, const Point<D>& query,
              const KnnOptions& options, const Rect<D>* window,
              bool best_first, QueryScratch<D>* scratch, QueryStats* stats,
              std::vector<Neighbor>* out, bool append) {
  return KnnEngine<D, Access, kObserved>(access, query, options, window,
                                         scratch, stats)
      .Run(best_first, out, append);
}

template <int D, class Access>
Status KnnSearchIntoImpl(const Access& access, const Point<D>& query,
                         const KnnOptions& options, const Rect<D>* window,
                         bool best_first, QueryScratch<D>* scratch,
                         std::vector<Neighbor>* out, QueryStats* stats) {
  SPATIAL_CHECK(scratch != nullptr && out != nullptr);
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  if (window != nullptr && best_first) {
    return Status::InvalidArgument(
        "a window excludes epsilon and max_visits");
  }
  out->clear();
  if (access.empty() || (window != nullptr && window->IsEmpty())) {
    return Status::OK();
  }
  if (stats == nullptr && options.visit_trace == nullptr &&
      scratch->trace == nullptr) {
    return RunKnn<D, Access, /*kObserved=*/false>(
        access, query, options, window, best_first, scratch, stats, out,
        /*append=*/false);
  }
  return RunKnn<D, Access, /*kObserved=*/true>(access, query, options,
                                               window, best_first, scratch,
                                               stats, out, /*append=*/false);
}

template <int D, class Access>
Status KnnSearchBatchImpl(const Access& access, const Point<D>* queries,
                          size_t num_queries, const KnnOptions& options,
                          QueryScratch<D>* scratch, BatchKnnResult* out) {
  SPATIAL_CHECK(scratch != nullptr && out != nullptr);
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  out->Clear();
  out->offsets.push_back(0);
  for (size_t q = 0; q < num_queries; ++q) {
    out->stats.emplace_back();
    if (!access.empty()) {
      SPATIAL_RETURN_IF_ERROR((RunKnn<D, Access, /*kObserved=*/true>(
          access, queries[q], options, /*window=*/nullptr,
          Approximate(options), scratch, &out->stats.back(), &out->neighbors,
          /*append=*/true)));
    }
    out->offsets.push_back(static_cast<uint32_t>(out->neighbors.size()));
  }
  return Status::OK();
}

}  // namespace

template <int D>
Status KnnSearchInto(TreeView<D> tree, const Point<D>& query,
                     const KnnOptions& options, QueryScratch<D>* scratch,
                     std::vector<Neighbor>* out, QueryStats* stats,
                     const Rect<D>* window) {
  return tree.WithAccess([&](const auto& access) {
    return KnnSearchIntoImpl<D>(access, query, options, window,
                                Approximate(options), scratch, out, stats);
  });
}

template <int D>
Result<std::vector<Neighbor>> BestFirstKnn(TreeView<D> tree,
                                           const Point<D>& query, uint32_t k,
                                           QueryStats* stats,
                                           QueryScratch<D>* scratch) {
  KnnOptions options;
  options.k = k;
  std::optional<QueryScratch<D>> owned;
  if (scratch == nullptr) scratch = &owned.emplace();
  std::vector<Neighbor> out;
  SPATIAL_RETURN_IF_ERROR(tree.WithAccess([&](const auto& access) {
    return KnnSearchIntoImpl<D>(access, query, options, /*window=*/nullptr,
                                /*best_first=*/true, scratch, &out, stats);
  }));
  return out;
}

template <int D>
Result<std::vector<Neighbor>> KnnSearch(const RTree<D>& tree,
                                        const Point<D>& query,
                                        const KnnOptions& options,
                                        QueryStats* stats) {
  QueryScratch<D> scratch;
  std::vector<Neighbor> out;
  SPATIAL_RETURN_IF_ERROR(
      KnnSearchInto<D>(tree, query, options, &scratch, &out, stats));
  return out;
}

template <int D>
Status KnnSearchBatch(TreeView<D> tree, const Point<D>* queries,
                      size_t num_queries, const KnnOptions& options,
                      QueryScratch<D>* scratch, BatchKnnResult* out) {
  return tree.WithAccess([&](const auto& access) {
    return KnnSearchBatchImpl<D>(access, queries, num_queries, options,
                                 scratch, out);
  });
}

template Result<std::vector<Neighbor>> KnnSearch<2>(const RTree<2>&,
                                                    const Point<2>&,
                                                    const KnnOptions&,
                                                    QueryStats*);
template Result<std::vector<Neighbor>> KnnSearch<3>(const RTree<3>&,
                                                    const Point<3>&,
                                                    const KnnOptions&,
                                                    QueryStats*);
template Result<std::vector<Neighbor>> KnnSearch<4>(const RTree<4>&,
                                                    const Point<4>&,
                                                    const KnnOptions&,
                                                    QueryStats*);

template Status KnnSearchInto<2>(TreeView<2>, const Point<2>&,
                                 const KnnOptions&, QueryScratch<2>*,
                                 std::vector<Neighbor>*, QueryStats*,
                                 const Rect<2>*);
template Status KnnSearchInto<3>(TreeView<3>, const Point<3>&,
                                 const KnnOptions&, QueryScratch<3>*,
                                 std::vector<Neighbor>*, QueryStats*,
                                 const Rect<3>*);
template Status KnnSearchInto<4>(TreeView<4>, const Point<4>&,
                                 const KnnOptions&, QueryScratch<4>*,
                                 std::vector<Neighbor>*, QueryStats*,
                                 const Rect<4>*);

template Result<std::vector<Neighbor>> BestFirstKnn<2>(TreeView<2>,
                                                       const Point<2>&,
                                                       uint32_t, QueryStats*,
                                                       QueryScratch<2>*);
template Result<std::vector<Neighbor>> BestFirstKnn<3>(TreeView<3>,
                                                       const Point<3>&,
                                                       uint32_t, QueryStats*,
                                                       QueryScratch<3>*);
template Result<std::vector<Neighbor>> BestFirstKnn<4>(TreeView<4>,
                                                       const Point<4>&,
                                                       uint32_t, QueryStats*,
                                                       QueryScratch<4>*);

template Status KnnSearchBatch<2>(TreeView<2>, const Point<2>*, size_t,
                                  const KnnOptions&, QueryScratch<2>*,
                                  BatchKnnResult*);
template Status KnnSearchBatch<3>(TreeView<3>, const Point<3>*, size_t,
                                  const KnnOptions&, QueryScratch<3>*,
                                  BatchKnnResult*);
template Status KnnSearchBatch<4>(TreeView<4>, const Point<4>*, size_t,
                                  const KnnOptions&, QueryScratch<4>*,
                                  BatchKnnResult*);

}  // namespace spatial
