#ifndef SPATIAL_SERVICE_SERVICE_STATS_H_
#define SPATIAL_SERVICE_SERVICE_STATS_H_

#include <cstdint>

#include "core/query_stats.h"
#include "obs/histogram.h"
#include "storage/io_stats.h"

namespace spatial {

// Aggregated view over every worker of a QueryService: the per-worker
// IoStats (physical reads through the private disk views), BufferStats
// (logical fetches — the paper's "page accesses"), algorithm counters, and
// the merged latency distribution. Produced by QueryService::Snapshot() —
// safe to take live while workers run; every source cell is a
// relaxed-atomic single-writer counter, so a concurrent snapshot is torn
// at worst across counters, never within one.
struct ServiceStats {
  uint32_t workers = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;
  // Reads Execute() ran on the calling thread; every other read queued and
  // has a queue_wait sample, so the two sum to TotalQueries().
  uint64_t inline_runs = 0;
  double elapsed_seconds = 0.0;  // since service start (or ResetStats)

  // Serving mode (OpenServing) only; zero on read-only services.
  uint64_t writes_ok = 0;
  uint64_t writes_failed = 0;
  uint64_t checkpoints = 0;

  // Resident fast path (docs/PERF.md "Resident tier"); all zero when the
  // tier is disabled. Hits/fallbacks count only resident-eligible kinds —
  // the ones kQueryKindTable (service/request.h) marks resident_eligible.
  uint64_t resident_hits = 0;
  uint64_t resident_fallbacks = 0;
  uint64_t resident_compiles = 0;
  uint64_t resident_invalidations = 0;
  uint64_t resident_arena_bytes = 0;  // currently published arena (gauge)
  uint32_t resident_nodes = 0;        // nodes in the published arena

  IoStats io;          // summed over worker disk views
  BufferStats buffer;  // summed over worker buffer pools
  QueryStats query;    // summed over all executed queries
  LatencySnapshot latency;
  LatencySnapshot queue_wait;  // submit → context claim, queued reads only

  uint64_t TotalQueries() const { return queries_ok + queries_failed; }

  double QueriesPerSecond() const {
    return elapsed_seconds <= 0.0
               ? 0.0
               : static_cast<double>(TotalQueries()) / elapsed_seconds;
  }

  // The paper's headline metric, now observable under concurrent load.
  double PageAccessesPerQuery() const {
    return TotalQueries() == 0
               ? 0.0
               : static_cast<double>(buffer.logical_fetches) /
                     static_cast<double>(TotalQueries());
  }

  double PhysicalReadsPerQuery() const {
    return TotalQueries() == 0
               ? 0.0
               : static_cast<double>(io.physical_reads) /
                     static_cast<double>(TotalQueries());
  }
};

}  // namespace spatial

#endif  // SPATIAL_SERVICE_SERVICE_STATS_H_
