#ifndef SPATIAL_OBS_QUERY_METRICS_H_
#define SPATIAL_OBS_QUERY_METRICS_H_

#include <cstddef>
#include <cstdint>

#include "core/query_stats.h"
#include "obs/stat_counter.h"

namespace spatial {
namespace obs {

// Scrape-safe mirror of QueryStats. The traversal code keeps bumping a
// plain per-query QueryStats (cheap, thread-private, unchanged since the
// seed); the worker folds that into one of these once per completed query.
// Scrapers read the cells live without tearing or TSan findings. Cell i
// mirrors kQueryStatFields[i].
struct AtomicQueryStats {
  StatCounter cells[kNumQueryStatFields];

  // Owner thread only (single-writer cells).
  void Add(const QueryStats& s) {
    for (size_t i = 0; i < kNumQueryStatFields; ++i) {
      cells[i] += s.*kQueryStatFields[i].member;
    }
  }

  // Any thread.
  QueryStats Snapshot() const {
    QueryStats s;
    for (size_t i = 0; i < kNumQueryStatFields; ++i) {
      s.*kQueryStatFields[i].member = cells[i];
    }
    return s;
  }

  void Reset() {
    for (StatCounter& cell : cells) cell = 0;
  }
};

}  // namespace obs
}  // namespace spatial

#endif  // SPATIAL_OBS_QUERY_METRICS_H_
