#ifndef SPATIAL_TESTS_REFERENCE_H_
#define SPATIAL_TESTS_REFERENCE_H_

// Shared brute-force references for the query classes, used as ground
// truth by the advanced-query, shard, and property suites. Every function
// scans the raw entry vector with the same canonical scalar distance
// expressions the engine uses (geom/metrics.h, core/skyline.h), so on
// tie-free random data the engine's answers must match byte for byte.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/neighbor_buffer.h"
#include "core/skyline.h"
#include "geom/metrics.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "rtree/entry.h"

namespace spatial {

inline bool RefNeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
  return a.id < b.id;
}

// Exact k-NN, optionally distance-bounded: the k nearest objects with
// distance <= max_distance (inclusive, matching KnnOptions::max_distance),
// sorted by (dist_sq, id).
template <int D>
std::vector<Neighbor> RefKnn(
    const std::vector<Entry<D>>& data, const Point<D>& q, uint32_t k,
    double max_distance = std::numeric_limits<double>::infinity()) {
  const double max_sq = max_distance * max_distance;
  std::vector<Neighbor> all;
  for (const Entry<D>& e : data) {
    const double d = MinDistSq(q, e.mbr);
    if (d <= max_sq) all.push_back(Neighbor{e.id, d});
  }
  std::sort(all.begin(), all.end(), RefNeighborLess);
  if (all.size() > k) all.resize(k);
  return all;
}

// Exact constrained k-NN: RefKnn over the objects whose MBR intersects
// `window` (closed intervals, as Rect::Intersects).
template <int D>
std::vector<Neighbor> RefConstrainedKnn(
    const std::vector<Entry<D>>& data, const Point<D>& q,
    const Rect<D>& window, uint32_t k,
    double max_distance = std::numeric_limits<double>::infinity()) {
  std::vector<Entry<D>> inside;
  for (const Entry<D>& e : data) {
    if (e.mbr.Intersects(window)) inside.push_back(e);
  }
  return RefKnn<D>(inside, q, k, max_distance);
}

// Exact reverse k-NN (ties included): object o qualifies iff fewer than k
// *other* objects are strictly closer to o than the query is. Sorted by
// (dist_sq, id). Dimension-generic even though the engine serves D = 2
// only — the rule itself is not planar.
template <int D>
std::vector<Neighbor> RefReverseKnn(const std::vector<Entry<D>>& data,
                                    const Point<D>& q, uint32_t k) {
  std::vector<Neighbor> result;
  for (size_t i = 0; i < data.size(); ++i) {
    const double to_query = MinDistSq(q, data[i].mbr);
    uint32_t closer = 0;
    for (size_t j = 0; j < data.size() && closer < k; ++j) {
      if (j == i) continue;
      const Point<D> o = data[i].mbr.Center();
      if (MinDistSq(o, data[j].mbr) < to_query) ++closer;
    }
    if (closer < k) result.push_back(Neighbor{data[i].id, to_query});
  }
  std::sort(result.begin(), result.end(), RefNeighborLess);
  return result;
}

// Exact NN skyline: o survives iff no other object dominates its
// per-source distance vector. Sorted by ascending (distance-sum, id) —
// the engine's output order.
template <int D>
std::vector<Entry<D>> RefSkyline(const std::vector<Entry<D>>& data,
                                 const std::vector<Point<D>>& sources) {
  const size_t m = sources.size();
  std::vector<double> dists(data.size() * m);
  for (size_t i = 0; i < data.size(); ++i) {
    SkylineDistVector<D>(sources.data(), m, data[i].mbr, &dists[i * m]);
  }
  std::vector<size_t> kept;
  for (size_t i = 0; i < data.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < data.size() && !dominated; ++j) {
      if (j == i) continue;
      dominated = SkylineDominates(&dists[j * m], &dists[i * m], m);
    }
    if (!dominated) kept.push_back(i);
  }
  std::vector<Entry<D>> result;
  result.reserve(kept.size());
  for (size_t i : kept) result.push_back(data[i]);
  std::sort(result.begin(), result.end(),
            [&](const Entry<D>& a, const Entry<D>& b) {
              const double sa = SkylineDistSum<D>(sources.data(), m, a.mbr);
              const double sb = SkylineDistSum<D>(sources.data(), m, b.mbr);
              if (sa != sb) return sa < sb;
              return a.id < b.id;
            });
  return result;
}

// Exact range query: every entry whose MBR intersects the window, sorted
// by ascending object id (the router's normalized order).
template <int D>
std::vector<Entry<D>> RefRange(const std::vector<Entry<D>>& data,
                               const Rect<D>& window) {
  std::vector<Entry<D>> result;
  for (const Entry<D>& e : data) {
    if (window.Intersects(e.mbr)) result.push_back(e);
  }
  std::sort(result.begin(), result.end(),
            [](const Entry<D>& a, const Entry<D>& b) { return a.id < b.id; });
  return result;
}

}  // namespace spatial

#endif  // SPATIAL_TESTS_REFERENCE_H_
