#ifndef SPATIAL_SHARD_PARTITIONER_H_
#define SPATIAL_SHARD_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "geom/rect.h"
#include "rtree/entry.h"

namespace spatial {

// The output of spatial partitioning: entry `shards[i]` holds shard i's
// objects and `tiles[i]` their bounding rectangle (Rect::Empty() for a
// shard that received no objects — possible only when the dataset holds
// fewer objects than shards). Shard contents are disjoint and their union
// is the input.
template <int D>
struct Partition {
  std::vector<std::vector<Entry<D>>> shards;
  std::vector<Rect<D>> tiles;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards.size()); }
};

// Carves `items` into `num_shards` spatially coherent tiles using the same
// Sort-Tile-Recursive ordering the bulk loader packs nodes with
// (rtree/str_sort.h, tile capacity = ceil(n / num_shards)), then slices the
// ordered run into contiguous chunks spread evenly — every shard gets
// floor(n / num_shards) or one more, mirroring the loader's PackLevel
// spread. Spatial locality is what makes routing by extent effective: a
// query's answers cluster in one or two tiles, whose k-th distance (or
// whose window miss) then prunes the remaining shards (docs/SHARDING.md).
//
// Deterministic: equal inputs produce equal partitions (the STR sort is a
// total order on (center, id) ties aside, and slicing is positional).
template <int D>
Result<Partition<D>> PartitionStr(std::vector<Entry<D>> items,
                                  uint32_t num_shards);

extern template Result<Partition<2>> PartitionStr<2>(std::vector<Entry<2>>,
                                                     uint32_t);
extern template Result<Partition<3>> PartitionStr<3>(std::vector<Entry<3>>,
                                                     uint32_t);

}  // namespace spatial

#endif  // SPATIAL_SHARD_PARTITIONER_H_
