#ifndef SPATIAL_SHARD_SHARD_ROUTER_H_
#define SPATIAL_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/dist_trace.h"
#include "obs/metrics.h"
#include "obs/stat_counter.h"
#include "obs/trace.h"
#include "service/request.h"
#include "shard/shard_set.h"

namespace spatial {

// Scatter-gather front end over a ShardSet. One Execute() call fans the
// request out to every relevant shard, waits for the per-shard answers,
// and merges them into a single QueryResponse that is bit-identical to
// running the same request against one tree holding the whole dataset
// (modulo distance ties at the k-th position — see docs/SHARDING.md).
//
// Every request is one round trip through ScatterQuery, in five steps:
// plan (the shards and their rounds), gather (submit to every shard of a
// round but the first, run the first through QueryService::Execute — on
// the calling thread when one of its contexts is idle — then wait for the
// rest), fold (the first error in shard order, summed stats and
// `affected`, the largest `lsn`, each round's slowest latency), merge (by
// kind) and record (merge_ns and the trace log). Only a reverse kNN runs
// more round trips than one.
//
// The plan is the paper's pruning rule at the root of the distributed
// tree, whose branches are the shards and whose branch MBRs are the shard
// extents (ShardSet::extents()). It applies the kNN engine's two tests to
// the non-empty extents — window miss, then MINDIST order with S3 — one
// sort by (key, shard index), ties to the lower index (docs/SHARDING.md
// "Routing" argues each kind sound):
//   * kKnn / kTopK (k = top_k) / kApproxKnn / kConstrainedKnn — keyed by
//     MINDIST^2 from the query to the extent; a constrained kNN first drops
//     the extents that miss its region and keys the rest by the *whole*
//     extent, never extent ∩ region (an object crossing the region edge
//     toward q lies closer than the clipped box). The nearest runs alone.
//     Then only the shards whose key <= min(max_distance^2, the first
//     shard's k-th dist^2 when it returned k neighbors) run, in parallel;
//     S3 prunes the rest. The boundary is not strict, so a shard holding an
//     object tied with the k-th distance still runs and the (dist_sq, id)
//     merge picks the same winner as a full scatter. Every kNN-shaped
//     answer merges by (dist_sq, id) truncated to k. The first shard's k-th
//     distance is a real object's, so for kApproxKnn the pruned shards hold
//     only objects beyond the true k-th and the merge keeps the epsilon
//     contract: every rank satisfies r <= (1+eps) * t.
//   * kRange — one round over the shards whose extent meets the window
//     (closed intervals, as Rect::Intersects); merge by object id.
//   * kInsert — run on the single shard whose extent is nearest the new
//     MBR by MINDIST. Once that shard acks, and before the router returns,
//     its extent grows to cover the MBR.
//   * kBatchKnn — scatter; merge per query by (dist_sq, id) truncated to k.
//   * kNnSkyline — scatter, union the per-shard skylines, re-apply the
//     dominance filter over the union (the global skyline is a subset of
//     the union: any global dominator either eliminated its victim inside
//     its own shard or survives into the union and eliminates it here).
//   * kReverseKnn — scatter for sector candidates only
//     (rknn_candidates_only), and merge by re-running the sector selection
//     over the union. Unless the request itself is candidates-only, each
//     survivor is then verified with an exact cross-shard (k+1)-NN, a kKnn
//     round trip of its own — verification must consult the *global*
//     dataset, which no single shard holds.
//   * kDelete / kCheckpoint — scatter (a delete must reach whichever
//     shard holds the object; `affected` sums over shards).
// When no shard qualifies, shard 0 validates the request and answers.
// latency_ns is the first round's slowest shard plus the slowest
// second-round shard.
//
// Distributed tracing (docs/OBSERVABILITY.md "Distributed traces"): the
// router is the root of a trace. A request is traced when it arrives
// carrying a sampled wire-v3 trace context (trace_id + trace_sampled,
// stamped by a remote caller) or when the router's own per-million
// sampling draw fires, decided once per Execute: every round trip of a
// sampled request shares its trace id. Either way the router stamps the
// context into every scattered copy, each shard force-samples and returns
// its QueryTraceRecord in the response, and the router assembles one
// RouterTraceRecord — root spans (queue, scatter, merge), one ShardSpan
// per visited shard (labelled with its shard index, ascending) with the
// network-vs-execute split, and the straggler shard — into its
// DistTraceLog. Round trips that cross the slow threshold are captured in
// the same log even when unsampled (without the per-shard queue-wait /
// per-level detail only a sampled round trip carries), so a reverse kNN
// leaves one entry per round trip.
//
// Thread-safe: Execute() may be called from any number of threads (the
// RPC server's connection threads do exactly that); all shared state is
// the shards' own MPMC queues, the set's mutexed extent table, the
// router's lock-free instruments, and the trace log's preallocated
// mutexed ring.
template <int D>
class ShardRouter {
 public:
  struct Options {
    // Router-side trace sampling: 0 = off (requests still trace when the
    // caller propagated a sampled context), 10000 = 1%.
    uint32_t trace_sample_per_million = 0;
    // Router slow-query log (scatter-gather round trips at or above the
    // threshold are captured whether sampled or not).
    uint64_t slow_threshold_ns = 10'000'000;  // 10 ms
    size_t slow_log_capacity = 64;
    size_t sampled_log_capacity = 64;
  };

  // `shards` must outlive the router.
  explicit ShardRouter(ShardSet<D>* shards, const Options& options = {});

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Synchronous scatter-gather round trip.
  QueryResponse<D> Execute(const QueryRequest<D>& request);

  ShardSet<D>& shards() { return *shards_; }
  const Options& options() const { return options_; }

  // Router-level instruments (requests by kind, merge latency) plus a
  // collector emitting per-shard query/latency families labelled
  // shard="i". ScrapeMetrics() returns the full document; the per-shard
  // registries remain scrapable individually via shard(i).ScrapeMetrics().
  obs::MetricsRegistry& metrics() { return metrics_; }
  std::string ScrapeMetrics() const { return metrics_.ScrapeText(); }

  // Assembled cross-shard traces and router-slow captures (slow ring +
  // reservoir; DumpJson backs the kDumpSlowLog admin frame).
  const obs::DistTraceLog& trace_log() const { return trace_log_; }

 private:
  // One shard as a branch of the plan: its extent key (MINDIST^2 for the
  // kinds that order shards, else 0) and its index. Plans sort by
  // (key, index).
  using Branch = std::pair<double, uint32_t>;

  // One visited shard's answer within a scatter round trip.
  struct ShardAnswer {
    uint32_t shard = 0;
    uint32_t round = 0;  // 1 for an ordered kind's second round, else 0
    // Request start → answer observed at the router (sampled requests
    // only, else 0).
    uint64_t completed_ns = 0;
    QueryResponse<D> response;
  };

  // The one round trip: plan, gather, fold, merge, record. `trace_id` is
  // the request's sampling decision, made once by Execute (0: unsampled).
  QueryResponse<D> ScatterQuery(const QueryRequest<D>& request,
                                uint64_t trace_id);
  void MergeAnswers(const QueryRequest<D>& request,
                    const std::vector<ShardAnswer>& answers,
                    QueryResponse<D>* merged);
  // Replaces a reverse kNN's candidates with the verified answer. Each
  // verification round carries the request's `trace_id`.
  void VerifyReverseKnn(const QueryRequest<D>& request, uint64_t trace_id,
                        QueryResponse<D>* response);
  void RegisterMetrics();
  // Builds and records the RouterTraceRecord for one scatter round trip
  // over the visited shards' answers (ascending shard index).
  void RecordScatterTrace(const QueryRequest<D>& request, bool sampled,
                          uint64_t trace_id, uint64_t root_span_id,
                          const std::vector<ShardAnswer>& answers,
                          uint64_t scatter_ns, uint64_t total_ns,
                          const QueryStats& merged_stats);

  ShardSet<D>* shards_;
  std::vector<Branch> all_shards_;  // (0, s) for every s: a full scatter
  Options options_;
  obs::MetricsRegistry metrics_;
  obs::DistTraceLog trace_log_;
  // Multi-writer cells exposed as the spatial_router_requests_total and
  // spatial_router_shards_pruned_total families, labelled kind="...", by a
  // scrape-time collector.
  obs::StatCounter requests_by_kind_[kNumQueryKinds];
  obs::StatCounter shards_pruned_by_kind_[kNumQueryKinds];
  obs::Counter* failed_;
  obs::Counter* rknn_candidates_;     // survivors of the global re-selection
  obs::Counter* rknn_verify_rounds_;  // cross-shard verification kNNs issued
  obs::Counter* traces_assembled_;    // sampled cross-shard traces built
  obs::PowerHistogram* merge_ns_;
};

extern template class ShardRouter<2>;
extern template class ShardRouter<3>;

}  // namespace spatial

#endif  // SPATIAL_SHARD_SHARD_ROUTER_H_
