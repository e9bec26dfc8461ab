#ifndef SPATIAL_OBS_DIST_TRACE_H_
#define SPATIAL_OBS_DIST_TRACE_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "core/query_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"

namespace spatial {
namespace obs {

// Distributed tracing across the scatter-gather hop (docs/OBSERVABILITY.md
// "Distributed traces"). The router is the root of a trace: it stamps the
// trace context (trace id, root span id, sample flag) into every scattered
// copy of a sampled request, each shard returns its own QueryTraceRecord
// in the response, and the router assembles the per-shard spans plus its
// own root spans (queue, scatter, merge) into one RouterTraceRecord.
//
// Everything here is fixed-size POD for the same reason QueryTraceRecord
// is: the capture path must never allocate. A router serving more shards
// than kMaxTraceShards records the first kMaxTraceShards and counts the
// rest in num_shards (the JSON dump flags the truncation).
inline constexpr uint32_t kMaxTraceShards = 16;

// One shard's slice of a distributed trace, as observed from the router.
// `rpc_ns` is the full router-side round trip (submit → answer observed);
// `queue_wait_ns` + `execute_ns` are the shard's own accounting, so
// rpc_ns - queue_wait_ns - execute_ns is the transport/overhead share —
// the network-vs-execute split the trace exists to expose.
struct ShardSpan {
  uint32_t shard = 0;
  uint16_t worker = 0;     // shard worker that executed the request
  bool traced = false;     // shard returned its sampled trace record
  uint64_t rpc_ns = 0;     // submit → answer observed at the router
  uint64_t queue_wait_ns = 0;  // shard-reported (valid when traced)
  uint64_t execute_ns = 0;     // shard-reported worker wall time
  QueryStats stats;            // shard-reported per-query counters
  uint32_t nodes_per_level[kTraceMaxLevels] = {};  // valid when traced
};

// One assembled cross-shard trace (or a router-slow capture without the
// per-shard detail when the request was not sampled).
struct RouterTraceRecord {
  uint64_t seq = 0;           // capture order, assigned by the log
  uint64_t trace_id = 0;      // propagated or router-generated, nonzero
  uint64_t root_span_id = 0;  // parent of every shard span
  char kind_name[16] = {};
  uint32_t k = 0;
  bool traced = false;  // sampled: per-shard spans and level counts valid
  // Root spans. `queue_ns` is the slowest shard's queue wait — the
  // scatter's queueing component; the router itself never queues.
  uint64_t queue_ns = 0;
  uint64_t scatter_ns = 0;  // fan-out → last shard answer gathered
  uint64_t merge_ns = 0;    // gather → merged answer ready
  uint64_t total_ns = 0;    // Execute entry → merged answer
  uint32_t num_shards = 0;  // shards scattered to (may exceed the array)
  uint32_t straggler = 0;   // shard index with the largest rpc_ns
  QueryStats merged_stats;
  ShardSpan shards[kMaxTraceShards];

  void SetKindName(const char* name) {
    std::strncpy(kind_name, name, sizeof(kind_name) - 1);
    kind_name[sizeof(kind_name) - 1] = '\0';
  }

  uint32_t captured_shards() const {
    return num_shards < kMaxTraceShards ? num_shards : kMaxTraceShards;
  }
};

// One trace rendered as a JSON object (the DumpJson element form) — used
// directly by tests and tools that hold a record.
void AppendRouterTraceJson(std::string* out, const RouterTraceRecord& r);

// The router-level slow-query log: the service's retention log
// (obs/slow_query_log.h) over assembled cross-shard traces, routed by the
// request's total time. DumpJson() backs the kDumpSlowLog admin frame; see
// docs/OBSERVABILITY.md "Distributed traces" for the record schema.
using DistTraceLog =
    RetentionLog<RouterTraceRecord, &RouterTraceRecord::total_ns,
                 0xA0761D6478BD642FULL, &AppendRouterTraceJson>;

}  // namespace obs
}  // namespace spatial

#endif  // SPATIAL_OBS_DIST_TRACE_H_
