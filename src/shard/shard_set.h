#ifndef SPATIAL_SHARD_SHARD_SET_H_
#define SPATIAL_SHARD_SHARD_SET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/serving_db.h"
#include "db/spatial_db.h"
#include "service/query_service.h"
#include "shard/partitioner.h"

namespace spatial {

// N independent QueryService shards over one spatially partitioned
// dataset. Build() runs the STR partitioner (shard/partitioner.h), bulk
// loads one database per tile, and starts one QueryService per shard; the
// ShardRouter (shard/shard_router.h) then scatters requests across them
// and merges the answers.
//
// Three backends:
//   * Memory (the default): each shard is an in-memory SpatialDb the set
//     owns, served via QueryService::Attach. Tests and benchmarks.
//   * File: each shard is `<dir>/shard_<i>.sdb`, bulk loaded, closed, and
//     reopened read-only via QueryService::Open.
//   * Serving (implies file): shards reopen via QueryService::OpenServing,
//     so the router can scatter durable kInsert / kDelete / kCheckpoint
//     alongside queries.
//
// Shards are fully independent — separate disks, buffer pools, worker
// pools, WALs — so there is no cross-shard coordination at all below the
// router. Above them the set keeps one extent per shard (see extents()),
// which every router over the set reads to route inserts and prune shard
// visits; the only shared state during a query is that extent table.
template <int D>
class ShardSet {
 public:
  struct Options {
    uint32_t num_shards = 2;
    // File / serving backends. `dir` must exist; shard files inside it are
    // truncated by Build().
    bool file_backed = false;
    bool serving = false;  // implies file_backed
    std::string dir;
    uint32_t page_size = 1024;
    // Build-time buffer-pool pages per shard (the serving-side pools are
    // sized by `service.frames_per_worker`).
    uint32_t buffer_pages = 256;
    typename QueryService<D>::Options service;

    Status Validate() const {
      if (num_shards < 1) {
        return Status::InvalidArgument("ShardSet: num_shards must be >= 1");
      }
      if ((file_backed || serving) && dir.empty()) {
        return Status::InvalidArgument(
            "ShardSet: file/serving backend needs a directory");
      }
      return Status::OK();
    }
  };

  // Partitions `items`, builds and starts every shard. On any failure the
  // already-built shards are torn down and the error returned.
  static Result<std::unique_ptr<ShardSet>> Build(std::vector<Entry<D>> items,
                                                 const Options& options);

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(services_.size());
  }
  QueryService<D>& shard(uint32_t i) { return *services_[i]; }
  const QueryService<D>& shard(uint32_t i) const { return *services_[i]; }

  // Every shard's extent: a rectangle containing every object the shard
  // has held since Build(). It starts as the shard's partition tile
  // (Rect::Empty() if the shard received no objects) and never shrinks —
  // the router grows it with GrowExtent() once the shard acks an insert,
  // before the router returns; deletes leave it alone. The router routes
  // inserts and prunes the shard visits of kNN, top-k, approximate and
  // constrained kNN and range against the same rectangles, and every
  // router over the set shares them, so a read issued after an insert's
  // ack sees the grown extent. An extent wider than its shard's data costs
  // pruning, never correctness; an insert submitted to shard(i) directly,
  // bypassing the router, does not grow it and may be missed by routed
  // reads. Returns a snapshot taken under one lock.
  std::vector<Rect<D>> extents() const;

  // Widens shard i's extent to cover `mbr`.
  void GrowExtent(uint32_t i, const Rect<D>& mbr);

  // Objects initially loaded into shard i.
  uint64_t shard_size(uint32_t i) const { return sizes_[i]; }

  const Options& options() const { return options_; }

 private:
  explicit ShardSet(const Options& options) : options_(options) {}

  Options options_;
  mutable std::mutex extents_mu_;
  std::vector<Rect<D>> extents_;  // guarded by extents_mu_
  std::vector<uint64_t> sizes_;
  // Memory backend only: the databases the services attach to. Declared
  // before services_ so every service shuts down before its database dies.
  std::vector<std::unique_ptr<SpatialDb<D>>> dbs_;
  std::vector<std::unique_ptr<QueryService<D>>> services_;
};

extern template class ShardSet<2>;
extern template class ShardSet<3>;

}  // namespace spatial

#endif  // SPATIAL_SHARD_SHARD_SET_H_
