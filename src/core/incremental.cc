#include "core/incremental.h"

#include "core/geo_browse.h"
#include "geom/metrics_simd.h"

namespace spatial {

namespace {

// The iterator's browse key: plain MINDIST, which for a leaf entry is the
// object distance (the object-distance kernel is the MINDIST kernel).
template <int D>
struct MinDistKey {
  const Point<D>* query;
  QueryStats* stats;

  void operator()(const SoaBlock<D>& soa, double* keys) const {
    MinDistSqBatchSoa(*query, soa, keys);
    if (stats != nullptr) stats->distance_computations += soa.n;
  }
};

}  // namespace

template <int D>
IncrementalKnn<D>::IncrementalKnn(TreeView<D> tree, const Point<D>& query,
                                  QueryStats* stats)
    : IncrementalKnn(tree, query, nullptr, stats) {}

template <int D>
IncrementalKnn<D>::IncrementalKnn(TreeView<D> tree, const Point<D>& query,
                                  QueryScratch<D>* scratch, QueryStats* stats)
    : tree_(tree), query_(query), stats_(stats), scratch_(scratch) {
  if (scratch_ == nullptr) {
    owned_scratch_ = std::make_unique<QueryScratch<D>>();
    scratch_ = owned_scratch_.get();
  }
  tree_.WithAccess([&](const auto& access) {
    GeoBrowse(access, MinDistKey<D>{&query_, stats_}, scratch_, stats_)
        .Start();
  });
}

template <int D>
Result<std::optional<Neighbor>> IncrementalKnn<D>::Next() {
  return tree_.WithAccess(
      [&](const auto& access) -> Result<std::optional<Neighbor>> {
        GeoBrowse browse(access, MinDistKey<D>{&query_, stats_}, scratch_,
                         stats_);
        GeoItem<D> item;
        while (browse.Next(&item)) {
          if (item.is_object) {
            return std::optional<Neighbor>(Neighbor{item.id, item.dist_sq});
          }
          SPATIAL_RETURN_IF_ERROR(browse.Expand(item));
        }
        return std::optional<Neighbor>(std::nullopt);
      });
}

template class IncrementalKnn<2>;
template class IncrementalKnn<3>;
template class IncrementalKnn<4>;

}  // namespace spatial
