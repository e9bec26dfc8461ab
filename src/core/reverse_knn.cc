#include "core/reverse_knn.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "core/geo_browse.h"
#include "core/knn.h"
#include "geom/metrics.h"
#include "geom/metrics_simd.h"

namespace spatial {

int ReverseKnnSectorFilter::SectorOf(const Point2& q, const Point2& p) {
  const double angle = std::atan2(p[1] - q[1], p[0] - q[0]);  // [-pi, pi]
  int sector = static_cast<int>((angle + M_PI) / (M_PI / 3.0));
  if (sector >= kNumSectors) sector = kNumSectors - 1;  // angle == +pi
  if (sector < 0) sector = 0;
  return sector;
}

ReverseKnnSectorFilter::ReverseKnnSectorFilter(const Point2& query, uint32_t k)
    : query_(query),
      // k candidates per sector suffice for points in general position; two
      // extra make the lemma robust to boundary ties, mirroring the k = 1
      // implementation's base of 3. The cap bounds adversarial
      // duplicate-heavy inputs; verification keeps over-generation safe.
      base_(k + 2),
      cap_(std::max<uint32_t>(16, 4 * (k + 2))) {
  for (double& d : band_dist_sq_) {
    d = std::numeric_limits<double>::infinity();
  }
}

bool ReverseKnnSectorFilter::Offer(const Point2& location, double dist_sq) {
  if (dist_sq == 0.0) {
    // Coincides with q: an unconditional reverse k-NN (q is at distance 0,
    // nothing is strictly closer) and irrelevant to sector bookkeeping.
    return true;
  }
  const int sector = SectorOf(query_, location);
  const bool accept =
      kept_[sector] < base_ ||
      (kept_[sector] < cap_ &&
       dist_sq <= band_dist_sq_[sector] * (1.0 + 1e-12));
  if (!accept) return false;
  ++kept_[sector];
  if (kept_[sector] == base_) band_dist_sq_[sector] = dist_sq;
  return true;
}

bool ReverseKnnSectorFilter::Closed(double dist_sq) const {
  for (int s = 0; s < kNumSectors; ++s) {
    if (kept_[s] < base_) return false;  // sector not yet saturated
    if (kept_[s] < cap_ &&
        dist_sq <= band_dist_sq_[s] * (1.0 + 1e-12)) {
      return false;  // still inside the sector's tie band
    }
  }
  return true;
}

bool ReverseKnnQualifies(const std::vector<Neighbor>& around,
                         uint64_t candidate_id, double candidate_dist_sq,
                         uint32_t k) {
  // `around` holds the k+1 nearest objects to the candidate's location
  // (including the candidate itself at distance 0), so if >= k others are
  // strictly closer than the query, at least k of them appear here.
  uint32_t strictly_closer = 0;
  for (const Neighbor& n : around) {
    if (n.id == candidate_id) continue;
    if (n.dist_sq < candidate_dist_sq) ++strictly_closer;
  }
  return strictly_closer < k;
}

namespace {

// Phase 1: sector-guided candidate generation by geometry-preserving
// distance browsing. Fills scratch->geo_items with the candidates in
// ascending (dist_sq, id) browse order.
template <class Access>
Status CollectCandidates(const Access& access, const Point2& query,
                         uint32_t k, QueryScratch<2>* scratch,
                         QueryStats* stats) {
  std::vector<GeoItem<2>>& candidates = scratch->geo_items;
  candidates.clear();

  ReverseKnnSectorFilter filter(query, k);
  auto key = [&query, stats](const SoaBlock<2>& soa, double* keys) {
    MinDistSqBatchSoa(query, soa, keys);
    if (stats != nullptr) stats->distance_computations += soa.n;
  };
  GeoBrowse browse(access, key, scratch, stats);
  browse.Start();
  GeoItem<2> item;
  while (browse.Next(&item)) {
    // Pop keys are nondecreasing, so once every sector is closed at this
    // distance nothing deeper in the queue can become a candidate.
    if (filter.Closed(item.dist_sq)) break;
    if (!item.is_object) {
      SPATIAL_RETURN_IF_ERROR(browse.Expand(item));
      continue;
    }
    if (filter.Offer(item.mbr.Center(), item.dist_sq)) {
      candidates.push_back(item);
    }
  }
  return Status::OK();
}

}  // namespace

Status ReverseKnnCandidates(TreeView<2> tree, const Point2& query,
                            const ReverseKnnOptions& options,
                            QueryScratch<2>* scratch,
                            std::vector<Entry<2>>* out, QueryStats* stats) {
  SPATIAL_CHECK(scratch != nullptr && out != nullptr);
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  out->clear();
  SPATIAL_RETURN_IF_ERROR(tree.WithAccess([&](const auto& access) {
    return CollectCandidates(access, query, options.k, scratch, stats);
  }));
  for (const GeoItem<2>& c : scratch->geo_items) {
    out->push_back(Entry<2>{c.mbr, c.id});
  }
  return Status::OK();
}

Status ReverseKnnSearch(TreeView<2> tree, const Point2& query,
                        const ReverseKnnOptions& options,
                        QueryScratch<2>* scratch, std::vector<Neighbor>* out,
                        QueryStats* stats) {
  SPATIAL_CHECK(scratch != nullptr && out != nullptr);
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  out->clear();
  SPATIAL_RETURN_IF_ERROR(tree.WithAccess([&](const auto& access) {
    return CollectCandidates(access, query, options.k, scratch, stats);
  }));

  // Phase 2: exact verification, one nested kNN query per candidate on
  // the same tier. The nested kNN reuses the same scratch — it never
  // touches geo_items, and tmp_neighbors is its output vector, so the
  // whole query stays allocation-free in steady state.
  KnnOptions knn;
  knn.k = options.k + 1;  // the candidate itself plus up to k others
  for (const GeoItem<2>& c : scratch->geo_items) {
    if (c.dist_sq == 0.0) {
      out->push_back(Neighbor{c.id, 0.0});
      continue;
    }
    SPATIAL_RETURN_IF_ERROR(KnnSearchInto<2>(tree, c.mbr.Center(), knn,
                                             scratch, &scratch->tmp_neighbors,
                                             stats));
    if (ReverseKnnQualifies(scratch->tmp_neighbors, c.id, c.dist_sq,
                            options.k)) {
      out->push_back(Neighbor{c.id, c.dist_sq});
    }
  }
  // (distance, id) order: deterministic output whatever order candidate
  // generation produced — the router's cross-shard path sorts identically.
  std::sort(out->begin(), out->end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
              return a.id < b.id;
            });
  return Status::OK();
}

}  // namespace spatial
