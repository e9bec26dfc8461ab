#include "core/skyline.h"

#include <algorithm>

#include "common/macros.h"
#include "core/geo_browse.h"
#include "geom/metrics_simd.h"

namespace spatial {
namespace {

template <int D, class Access>
Status NnSkylineImpl(const Access& access, const Point<D>* sources,
                     size_t num_sources, QueryScratch<D>* scratch,
                     std::vector<Entry<D>>* out, QueryStats* stats) {
  SPATIAL_CHECK(scratch != nullptr && out != nullptr);
  if (num_sources < 1 || sources == nullptr) {
    return Status::InvalidArgument(
        "nn-skyline needs at least one source point");
  }
  out->clear();
  if (access.empty()) return Status::OK();

  // Skyline members: geometry + ordering key in geo_items, the parallel
  // per-source distance vectors packed m-at-a-time in geo_dists (member j
  // owns geo_dists[j*m .. (j+1)*m)).
  std::vector<GeoItem<D>>& members = scratch->geo_items;
  std::vector<double>& dists = scratch->geo_dists;
  members.clear();
  dists.clear();
  const size_t m = num_sources;

  // Browse key: sum of per-source squared MINDISTs, one kernel pass per
  // source accumulated in source order (bit-identical to the scalar
  // SkylineDistSum the router and reference use). min_max_dist is free in
  // this traversal and serves as the per-source staging lane.
  auto key = [&](const SoaBlock<D>& soa, double* keys) {
    const uint32_t n = soa.n;
    double* per_source =
        scratch->min_max_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    for (uint32_t i = 0; i < n; ++i) keys[i] = 0.0;
    for (size_t s = 0; s < m; ++s) {
      MinDistSqBatchSoa(sources[s], soa, per_source);
      for (uint32_t i = 0; i < n; ++i) keys[i] += per_source[i];
    }
    if (stats != nullptr) {
      stats->distance_computations += static_cast<uint64_t>(n) * m;
    }
  };
  GeoBrowse browse(access, key, scratch, stats);
  browse.Start();

  GeoItem<D> item;
  while (browse.Next(&item)) {
    if (!item.is_object && members.empty()) {
      // Nothing can dominate yet, so a node descends untested. This also
      // keeps the root's box (Rect::Empty(), which has no MINDIST) out of
      // SkylineDistVector.
      SPATIAL_RETURN_IF_ERROR(browse.Expand(item));
      continue;
    }
    // The popped box's per-source vector is staged at the tail of the
    // member pool; kept if the object is accepted, rolled back otherwise.
    const size_t off = dists.size();
    dists.resize(off + m);
    SkylineDistVector<D>(sources, m, item.mbr, dists.data() + off);
    bool dominated = false;
    for (size_t j = 0; j < members.size(); ++j) {
      if (SkylineDominates(dists.data() + j * m, dists.data() + off, m)) {
        dominated = true;
        break;
      }
    }
    if (dominated) {
      // A member dominating a node's MINDIST vector dominates every object
      // inside it (object distances only grow from the node's MINDIST, and
      // the strict inequality carries through), so the subtree is dead.
      dists.resize(off);
      if (stats != nullptr && !item.is_object) ++stats->pruned_s3;
      continue;
    }
    if (item.is_object) {
      // Pop order is nondecreasing in the distance sum and dominance
      // implies a strictly smaller sum, so every object that could
      // dominate this one has already been popped — and if it was itself
      // dominated, its dominator is a member (dominance is transitive).
      // Testing against the current member set is therefore exact.
      members.push_back(item);
    } else {
      dists.resize(off);
      SPATIAL_RETURN_IF_ERROR(browse.Expand(item));
    }
  }

  // Canonical (distance-sum, id) order: pop-order ties between
  // incomparable equal-sum objects are tree-shape dependent, the sorted
  // output is not — the cross-shard merge sorts identically.
  std::sort(members.begin(), members.end(),
            [](const GeoItem<D>& a, const GeoItem<D>& b) {
              if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
              return a.id < b.id;
            });
  for (const GeoItem<D>& member : members) {
    out->push_back(Entry<D>{member.mbr, member.id});
  }
  return Status::OK();
}

}  // namespace

template <int D>
Status NnSkylineSearch(TreeView<D> tree, const Point<D>* sources,
                       size_t num_sources, QueryScratch<D>* scratch,
                       std::vector<Entry<D>>* out, QueryStats* stats) {
  return tree.WithAccess([&](const auto& access) {
    return NnSkylineImpl<D>(access, sources, num_sources, scratch, out,
                            stats);
  });
}

template Status NnSkylineSearch<2>(TreeView<2>, const Point<2>*, size_t,
                                   QueryScratch<2>*, std::vector<Entry<2>>*,
                                   QueryStats*);
template Status NnSkylineSearch<3>(TreeView<3>, const Point<3>*, size_t,
                                   QueryScratch<3>*, std::vector<Entry<3>>*,
                                   QueryStats*);
template Status NnSkylineSearch<4>(TreeView<4>, const Point<4>*, size_t,
                                   QueryScratch<4>*, std::vector<Entry<4>>*,
                                   QueryStats*);

}  // namespace spatial
