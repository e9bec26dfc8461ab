#ifndef SPATIAL_CORE_REVERSE_KNN_H_
#define SPATIAL_CORE_REVERSE_KNN_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "core/neighbor_buffer.h"
#include "core/node_access.h"
#include "core/query_stats.h"
#include "core/scratch.h"
#include "geom/point.h"
#include "rtree/entry.h"

namespace spatial {

// Reverse k-nearest neighbors (monochromatic, 2-D points): the objects o
// for which fewer than k *other* objects are strictly closer to o than the
// query point q is — i.e. the objects that would include q in their own
// k-NN answer (ties included). k = 1 is the classic reverse nearest
// neighbor query.
//
// Implementation generalizes the Stanoi–Agrawal–El Abbadi sector method
// (Dawar et al., arXiv:1506.04867):
//   1. Partition the plane around q into six 60° sectors and browse
//      objects in ascending distance (geometry-preserving best-first
//      browse over either tier). Within one sector any two points are
//      < 60° apart, so by the law of cosines a point with >= k same-sector
//      points at distance <= its own has those k points strictly closer to
//      it than q — it cannot be a reverse k-NN. Only each sector's k
//      nearest (plus a tie band and slack) survive as candidates.
//   2. Each candidate is verified exactly with a (k+1)-NN query at its
//      location: it qualifies iff fewer than k other objects are strictly
//      closer to it than q is. The verification is exact, so candidate
//      over-generation never changes the answer.
//
// Intended for point objects (degenerate MBRs); extended objects are
// treated by their MBR distance, but the sector lemma is stated for
// points. Only D = 2 is provided — the sector construction is planar; the
// service layer reports kInvalidArgument for other dimensions.
struct ReverseKnnOptions {
  uint32_t k = 1;

  Status Validate() const {
    if (k < 1) return Status::InvalidArgument("k must be >= 1");
    return Status::OK();
  }
};

// Sector bookkeeping of phase 1, shared by the single-tree search and the
// shard router's global candidate re-selection (shard/shard_router.cc):
// feed objects in nondecreasing distance from q; Offer() decides whether
// the object remains a candidate, Closed() whether any farther object can
// still be accepted (monotone in dist_sq, so a browse may stop there).
class ReverseKnnSectorFilter {
 public:
  static constexpr int kNumSectors = 6;

  ReverseKnnSectorFilter(const Point2& query, uint32_t k);

  // `dist_sq` is the squared distance from the query to `location`; calls
  // must be nondecreasing in dist_sq. Objects coinciding with the query
  // (dist_sq == 0) are unconditional reverse k-NN and bypass the sectors.
  bool Offer(const Point2& location, double dist_sq);

  // True once every sector is saturated beyond its tie band at this
  // distance — nothing at distance >= dist_sq can be accepted anymore.
  bool Closed(double dist_sq) const;

  static int SectorOf(const Point2& q, const Point2& p);

 private:
  const Point2 query_;
  const uint32_t base_;  // per-sector keep target: k + tie headroom
  const uint32_t cap_;   // hard cap against adversarial duplicate inputs
  uint32_t kept_[kNumSectors] = {};
  double band_dist_sq_[kNumSectors];  // the base-th distance; +inf before
};

// Exact verification rule shared by core and router: `around` is a
// (k+1)-NN answer at the candidate's location; the candidate (at
// `candidate_dist_sq` from the query) qualifies iff fewer than k *other*
// objects are strictly closer to it than the query is.
bool ReverseKnnQualifies(const std::vector<Neighbor>& around,
                         uint64_t candidate_id, double candidate_dist_sq,
                         uint32_t k);

// Phase 1 only: generates this tree's candidate set (each with retained
// geometry) without verifying, for the shard router's scatter path — the
// verification k-NN must consult the *global* tree, so the router re-runs
// selection over the union and verifies through cross-shard kNN. Output
// entries carry the object MBR; their order is ascending (dist_sq, id).
// `tree` is either tier.
Status ReverseKnnCandidates(TreeView<2> tree, const Point2& query,
                            const ReverseKnnOptions& options,
                            QueryScratch<2>* scratch,
                            std::vector<Entry<2>>* out, QueryStats* stats);

// The full search: candidate generation + exact verification against the
// same tree. `out` (cleared first) receives the reverse k-NN sorted by
// ascending (distance, id). Zero steady-state allocations when `scratch`
// and `out` are reused across queries. `tree` is either tier.
Status ReverseKnnSearch(TreeView<2> tree, const Point2& query,
                        const ReverseKnnOptions& options,
                        QueryScratch<2>* scratch, std::vector<Neighbor>* out,
                        QueryStats* stats);

}  // namespace spatial

#endif  // SPATIAL_CORE_REVERSE_KNN_H_
