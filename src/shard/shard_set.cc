#include "shard/shard_set.h"

#include <utility>

namespace spatial {

namespace {

std::string ShardPath(const std::string& dir, uint32_t shard) {
  return dir + "/shard_" + std::to_string(shard) + ".sdb";
}

}  // namespace

template <int D>
Result<std::unique_ptr<ShardSet<D>>> ShardSet<D>::Build(
    std::vector<Entry<D>> items, const Options& options) {
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  SPATIAL_RETURN_IF_ERROR(options.service.Validate());

  SPATIAL_ASSIGN_OR_RETURN(
      Partition<D> partition,
      PartitionStr<D>(std::move(items), options.num_shards));

  std::unique_ptr<ShardSet> set(new ShardSet(options));
  set->extents_ = std::move(partition.tiles);
  set->sizes_.reserve(options.num_shards);
  for (const auto& shard : partition.shards) {
    set->sizes_.push_back(shard.size());
  }

  const bool file_backed = options.file_backed || options.serving;
  typename SpatialDb<D>::Options db_options;
  db_options.page_size = options.page_size;
  db_options.buffer_pages = options.buffer_pages;

  for (uint32_t s = 0; s < options.num_shards; ++s) {
    if (!file_backed) {
      SPATIAL_ASSIGN_OR_RETURN(SpatialDb<D> db,
                               SpatialDb<D>::CreateInMemory(db_options));
      SPATIAL_RETURN_IF_ERROR(
          db.BulkLoadData(std::move(partition.shards[s]), BulkLoadMethod::kStr));
      // Attach() workers read the raw disk, so dirty pages must be down.
      SPATIAL_RETURN_IF_ERROR(db.Flush());
      set->dbs_.push_back(std::make_unique<SpatialDb<D>>(std::move(db)));
      SPATIAL_ASSIGN_OR_RETURN(
          std::unique_ptr<QueryService<D>> service,
          QueryService<D>::Attach(*set->dbs_.back(), options.service));
      set->services_.push_back(std::move(service));
      continue;
    }

    const std::string path = ShardPath(options.dir, s);
    {
      SPATIAL_ASSIGN_OR_RETURN(SpatialDb<D> db,
                               SpatialDb<D>::CreateOnFile(path, db_options));
      SPATIAL_RETURN_IF_ERROR(
          db.BulkLoadData(std::move(partition.shards[s]), BulkLoadMethod::kStr));
      SPATIAL_RETURN_IF_ERROR(db.Close());
    }
    if (options.serving) {
      ServingOptions serving_options;
      serving_options.page_size = options.page_size;
      serving_options.buffer_pages = options.buffer_pages;
      SPATIAL_ASSIGN_OR_RETURN(
          std::unique_ptr<QueryService<D>> service,
          QueryService<D>::OpenServing(path, serving_options, options.service));
      set->services_.push_back(std::move(service));
    } else {
      SPATIAL_ASSIGN_OR_RETURN(
          std::unique_ptr<QueryService<D>> service,
          QueryService<D>::Open(path, options.page_size, options.service));
      set->services_.push_back(std::move(service));
    }
  }

  return set;
}

template <int D>
std::vector<Rect<D>> ShardSet<D>::extents() const {
  std::lock_guard<std::mutex> lock(extents_mu_);
  return extents_;
}

template <int D>
void ShardSet<D>::GrowExtent(uint32_t i, const Rect<D>& mbr) {
  std::lock_guard<std::mutex> lock(extents_mu_);
  extents_[i].ExpandToInclude(mbr);
}

template class ShardSet<2>;
template class ShardSet<3>;

}  // namespace spatial
