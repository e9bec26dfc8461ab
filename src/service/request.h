#ifndef SPATIAL_SERVICE_REQUEST_H_
#define SPATIAL_SERVICE_REQUEST_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/knn.h"
#include "core/neighbor_buffer.h"
#include "core/query_stats.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "obs/slow_query_log.h"
#include "rtree/entry.h"

namespace spatial {

// The request kinds the service executes. The query kinds work against any
// service; the write kinds (kInsert / kDelete / kCheckpoint) need a service
// opened in serving mode (OpenServing), where a single writer thread logs
// them to the WAL and publishes snapshot-isolated tree versions — on a
// read-only service they fail immediately (see docs/SERVICE.md and
// docs/DURABILITY.md).
enum class QueryKind {
  kKnn,             // k nearest neighbors (SIGMOD'95 branch-and-bound)
  kConstrainedKnn,  // k nearest within a region
  kRange,           // all entries intersecting a window
  kTopK,            // k nearest in best-first order (BestFirstKnn)
  kBatchKnn,        // many kNN queries answered in one worker pass
  kInsert,          // durably insert (window = MBR, object_id = id)
  kDelete,          // durably delete one exact (window, object_id) match
  kCheckpoint,      // fold the WAL into the base file now
  // Later kinds append below so existing wire bytes keep their meaning
  // (net/wire.h kWireVersion gates cross-version handshakes).
  kReverseKnn,      // reverse k-NN: objects that count q among their k-NN
  kNnSkyline,       // NN skyline over the batch_queries source points
  kApproxKnn,       // epsilon/budget-relaxed kNN (knn.epsilon, max_visits)
};

// Size of the enum, for per-kind stat shards (metrics registry).
inline constexpr int kNumQueryKinds =
    static_cast<int>(QueryKind::kApproxKnn) + 1;

// The kind table: one row per enum member, indexed by the enum value. The
// static_asserts below force this table, kNumQueryKinds, and the per-kind
// metric arrays it sizes (service/query_service.h, shard/shard_router.h)
// to move together — adding an enum member without a row, or reordering
// rows, fails the build instead of silently desynchronizing stat shards.
struct QueryKindInfo {
  QueryKind kind;
  const char* name;        // metric label (hyphenated; exposition folds)
  bool is_write;           // needs a serving-mode (writer) service
  bool resident_eligible;  // can be answered by the resident tree tier
};

inline constexpr QueryKindInfo kQueryKindTable[] = {
    {QueryKind::kKnn, "knn", false, true},
    {QueryKind::kConstrainedKnn, "constrained-knn", false, true},
    {QueryKind::kRange, "range", false, false},
    {QueryKind::kTopK, "top-k", false, true},
    {QueryKind::kBatchKnn, "batch-knn", false, true},
    {QueryKind::kInsert, "insert", true, false},
    {QueryKind::kDelete, "delete", true, false},
    {QueryKind::kCheckpoint, "checkpoint", true, false},
    {QueryKind::kReverseKnn, "reverse-knn", false, true},
    {QueryKind::kNnSkyline, "nn-skyline", false, true},
    {QueryKind::kApproxKnn, "approx-knn", false, true},
};

static_assert(sizeof(kQueryKindTable) / sizeof(kQueryKindTable[0]) ==
                  kNumQueryKinds,
              "kQueryKindTable must have exactly one row per QueryKind");

namespace internal {
constexpr bool QueryKindTableAligned() {
  for (int i = 0; i < kNumQueryKinds; ++i) {
    if (static_cast<int>(kQueryKindTable[i].kind) != i) return false;
  }
  return true;
}
}  // namespace internal

static_assert(internal::QueryKindTableAligned(),
              "kQueryKindTable rows must be in enum order");

inline const char* QueryKindName(QueryKind kind) {
  const int i = static_cast<int>(kind);
  if (i < 0 || i >= kNumQueryKinds) return "unknown";
  return kQueryKindTable[i].name;
}

inline bool IsWriteKind(QueryKind kind) {
  const int i = static_cast<int>(kind);
  if (i < 0 || i >= kNumQueryKinds) return false;
  return kQueryKindTable[i].is_write;
}

// True for kinds the resident tree tier can serve (query_service.cc
// routes these through the compiled arena when it is fresh).
inline bool IsResidentEligible(QueryKind kind) {
  const int i = static_cast<int>(kind);
  if (i < 0 || i >= kNumQueryKinds) return false;
  return kQueryKindTable[i].resident_eligible;
}

// One query. Which fields matter depends on `kind`; the factory functions
// below construct well-formed requests for each kind.
template <int D>
struct QueryRequest {
  QueryKind kind = QueryKind::kKnn;
  Point<D> query{};                    // kKnn-family / kTopK / kReverseKnn
  Rect<D> window = Rect<D>::Empty();   // kConstrainedKnn region, kRange
  KnnOptions knn;                      // kKnn-family (k, max_distance,
                                       // epsilon, max_visits), kReverseKnn k
  uint32_t top_k = 1;                  // kTopK result count
  std::vector<Point<D>> batch_queries;  // kBatchKnn queries, kNnSkyline
                                        // source points
  uint64_t object_id = 0;              // kInsert / kDelete object id
  // kReverseKnn scatter support: stop after sector candidate generation
  // and return the candidates (with geometry) as `entries` — the shard
  // router verifies them against the global tree itself.
  bool rknn_candidates_only = false;

  // Distributed trace context (wire v3, docs/OBSERVABILITY.md). A nonzero
  // trace_id with trace_sampled set forces the executing service to trace
  // this query regardless of its own sampling rate and to return its
  // QueryTraceRecord in the response — the shard router stamps these into
  // every scattered copy of a sampled request and assembles the returned
  // records into one cross-shard trace.
  uint64_t trace_id = 0;        // 0 = not part of a distributed trace
  uint64_t parent_span_id = 0;  // the router's root span (0 at the root)
  bool trace_sampled = false;   // force-sample + return the trace record
  // Deadline hint: the remaining time the caller will wait, 0 = none.
  // The RPC server sheds a request whose budget has already elapsed on
  // arrival as kOverloaded before any shard sees it (a caller that knows
  // its deadline passed sends 1 to make that explicit).
  uint64_t deadline_budget_ns = 0;

  static QueryRequest Knn(const Point<D>& q, uint32_t k) {
    QueryRequest r;
    r.kind = QueryKind::kKnn;
    r.query = q;
    r.knn.k = k;
    return r;
  }

  static QueryRequest ConstrainedKnn(const Point<D>& q, const Rect<D>& region,
                                     uint32_t k) {
    QueryRequest r;
    r.kind = QueryKind::kConstrainedKnn;
    r.query = q;
    r.window = region;
    r.knn.k = k;
    return r;
  }

  static QueryRequest Range(const Rect<D>& window) {
    QueryRequest r;
    r.kind = QueryKind::kRange;
    r.window = window;
    return r;
  }

  static QueryRequest TopK(const Point<D>& q, uint32_t k) {
    QueryRequest r;
    r.kind = QueryKind::kTopK;
    r.query = q;
    r.top_k = k;
    return r;
  }

  // All queries share one k and one traversal through the worker's scratch
  // arena; the response packs per-query slices CSR-style (batch_offsets).
  static QueryRequest BatchKnn(std::vector<Point<D>> queries, uint32_t k) {
    QueryRequest r;
    r.kind = QueryKind::kBatchKnn;
    r.batch_queries = std::move(queries);
    r.knn.k = k;
    return r;
  }

  // Reverse k-NN: the objects that would include q in their own k-NN
  // answer (ties included). 2-D services only — others answer
  // kInvalidArgument (the sector construction is planar).
  static QueryRequest ReverseKnn(const Point<D>& q, uint32_t k) {
    QueryRequest r;
    r.kind = QueryKind::kReverseKnn;
    r.query = q;
    r.knn.k = k;
    return r;
  }

  // NN skyline over >= 1 source points (core/skyline.h): results arrive
  // as `entries` sorted by ascending (distance-sum, id).
  static QueryRequest NnSkyline(std::vector<Point<D>> sources) {
    QueryRequest r;
    r.kind = QueryKind::kNnSkyline;
    r.batch_queries = std::move(sources);
    return r;
  }

  // Approximate kNN: prunes at bound/(1+epsilon)^2 (every answer within
  // (1+epsilon) of the true distance) and optionally stops after
  // max_visits node visits (no distance contract; recall is measured —
  // see docs/QUERIES.md). epsilon = 0, max_visits = 0 is exact.
  static QueryRequest ApproxKnn(const Point<D>& q, uint32_t k, double epsilon,
                                uint64_t max_visits = 0) {
    QueryRequest r;
    r.kind = QueryKind::kApproxKnn;
    r.query = q;
    r.knn.k = k;
    r.knn.epsilon = epsilon;
    r.knn.max_visits = max_visits;
    return r;
  }

  // Durable writes (serving mode only). The response's future resolves
  // once the op is on disk — an OK status IS the durability ack.
  static QueryRequest Insert(const Rect<D>& mbr, uint64_t id) {
    QueryRequest r;
    r.kind = QueryKind::kInsert;
    r.window = mbr;
    r.object_id = id;
    return r;
  }

  static QueryRequest Delete(const Rect<D>& mbr, uint64_t id) {
    QueryRequest r;
    r.kind = QueryKind::kDelete;
    r.window = mbr;
    r.object_id = id;
    return r;
  }

  static QueryRequest Checkpoint() {
    QueryRequest r;
    r.kind = QueryKind::kCheckpoint;
    return r;
  }
};

// The answer to one request. `neighbors` is filled for the k-NN kinds,
// `entries` for range queries. `stats` carries the paper's per-query
// counters (nodes_visited == page accesses); `latency_ns` is wall time
// inside the worker, excluding queue wait.
//
// For kBatchKnn, `neighbors` concatenates every query's results and
// `batch_offsets` delimits them: query i owns neighbors
// [batch_offsets[i], batch_offsets[i + 1]). `stats` sums over the batch.
template <int D>
struct QueryResponse {
  Status status;
  std::vector<Neighbor> neighbors;
  std::vector<Entry<D>> entries;
  std::vector<uint32_t> batch_offsets;
  QueryStats stats;
  uint64_t latency_ns = 0;
  uint32_t worker_id = 0;
  // Write kinds: the op's log sequence number, and 1 when it took effect
  // (inserts always do; a delete counts only an exact match).
  uint64_t lsn = 0;
  uint64_t affected = 0;
  // Sampled tracing: the worker's capture of this query (full QueryStats,
  // per-level node counts, queue-wait/execute spans), filled whenever the
  // query was traced — by the service's own sampling draw or the
  // request's propagated trace_sampled flag. Fixed-size POD, so carrying
  // it keeps the response allocation-free; the wire codec only encodes it
  // when has_trace is set.
  bool has_trace = false;
  obs::QueryTraceRecord trace;

  bool ok() const { return status.ok(); }
};

}  // namespace spatial

#endif  // SPATIAL_SERVICE_REQUEST_H_
