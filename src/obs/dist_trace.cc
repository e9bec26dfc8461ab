#include "obs/dist_trace.h"

namespace spatial {
namespace obs {

void AppendRouterTraceJson(std::string* out, const RouterTraceRecord& r) {
  out->push_back('{');
  AppendJsonU64(out, "seq", r.seq);
  AppendJsonU64(out, "trace_id", r.trace_id);
  AppendJsonU64(out, "root_span_id", r.root_span_id);
  out->append("\"kind\":\"");
  out->append(r.kind_name);
  out->append("\",");
  AppendJsonU64(out, "k", r.k);
  out->append(r.traced ? "\"traced\":true," : "\"traced\":false,");
  out->append("\"spans\":{");
  AppendJsonU64(out, "queue_ns", r.queue_ns);
  AppendJsonU64(out, "scatter_ns", r.scatter_ns);
  AppendJsonU64(out, "merge_ns", r.merge_ns);
  AppendJsonU64(out, "total_ns", r.total_ns, /*trailing_comma=*/false);
  out->append("},");
  AppendJsonU64(out, "num_shards", r.num_shards);
  AppendJsonU64(out, "straggler", r.straggler);
  out->append("\"merged_stats\":");
  AppendQueryStatsJson(out, r.merged_stats);
  out->append(",\"shards\":[");
  for (uint32_t i = 0; i < r.captured_shards(); ++i) {
    const ShardSpan& s = r.shards[i];
    if (i != 0) out->push_back(',');
    out->push_back('{');
    AppendJsonU64(out, "shard", s.shard);
    AppendJsonU64(out, "worker", s.worker);
    out->append(s.traced ? "\"traced\":true," : "\"traced\":false,");
    AppendJsonU64(out, "rpc_ns", s.rpc_ns);
    AppendJsonU64(out, "queue_wait_ns", s.queue_wait_ns);
    AppendJsonU64(out, "execute_ns", s.execute_ns);
    // The transport/observation share of the round trip: what is left
    // after the shard's own queue-wait and execute accounting.
    const uint64_t accounted = s.queue_wait_ns + s.execute_ns;
    AppendJsonU64(out, "overhead_ns",
                  s.rpc_ns > accounted ? s.rpc_ns - accounted : 0);
    out->append("\"stats\":");
    AppendQueryStatsJson(out, s.stats);
    out->append(",\"nodes_per_level\":");
    AppendLevelsJson(out, s.nodes_per_level);
    out->push_back('}');
  }
  out->push_back(']');
  if (r.num_shards > kMaxTraceShards) {
    out->append(",\"shards_truncated\":true");
  }
  out->push_back('}');
}

}  // namespace obs
}  // namespace spatial
