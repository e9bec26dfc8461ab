#ifndef SPATIAL_SERVICE_QUERY_SERVICE_H_
#define SPATIAL_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/scratch.h"
#include "db/serving_db.h"
#include "db/spatial_db.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/query_metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "service/request.h"
#include "service/request_queue.h"
#include "service/service_stats.h"
#include "storage/buffer_pool.h"
#include "storage/read_only_disk.h"
#include "storage/resident_tree.h"

namespace spatial {

// Concurrent query service over a SpatialDb: a fixed pool of worker
// threads drains an MPMC request queue and answers kNN, constrained kNN,
// range, and incremental top-k queries.
//
// Two modes:
//   * Read-only (Open / Attach): the classic immutable-tree service.
//   * Serving (OpenServing): the database is a ServingDb — a dedicated
//     writer thread drains a separate write queue, group-commits batches
//     to the WAL, and publishes copy-on-write snapshots; each reader
//     worker pins the current snapshot around every query, so queries see
//     a consistent tree version while writes land concurrently
//     (docs/DURABILITY.md).
//
// Concurrency model (docs/SERVICE.md has the full story):
//   * The served tree version is immutable (permanently in read-only mode,
//     per-snapshot under COW in serving mode), so workers share the
//     on-disk image with no coordination at all.
//   * Each worker owns a private ReadOnlyDiskView + BufferPool + RTree
//     handle — the hot path (queue pop and context claim aside) takes no
//     locks and touches no shared mutable state. Physical reads go through
//     the base disk's thread-safe ReadPageConcurrent (pread on files,
//     stable-memory copy in-memory).
//   * Per-query latency lands in a lock-free per-worker histogram;
//     Snapshot() merges workers into one ServiceStats (percentiles, QPS,
//     and the paper's page-accesses-per-query, now measurable under load).
//   * Run to completion: a worker's state is an execution context that
//     either its thread (for a queued request) or an Execute() caller
//     (running the read on its own thread) claims. Execute() runs a read
//     inline only when a context is idle and no accepted request still
//     waits for one, so an inline caller never overtakes queued work.
//
// Usage:
//   auto svc = QueryService<2>::Open("points.sdb", 1024, {});
//   auto future = (*svc)->Submit(QueryRequest<2>::Knn({{0.5, 0.5}}, 8));
//   QueryResponse<2> resp = future.get();
//
// Submit and Execute may be called from any number of threads. Snapshot()
// may be called at any time; counters are exact once every submitted
// future has resolved and every Execute has returned. The destructor
// drains outstanding requests and joins the workers.
template <int D>
class QueryService {
 public:
  struct Options {
    uint32_t num_workers = 4;
    // Private buffer-pool frames per worker. Queries pin one frame at a
    // time, so even tiny pools work; larger pools cache the hot upper
    // tree levels per worker (E14 varies this).
    uint32_t frames_per_worker = 256;
    EvictionPolicy eviction = EvictionPolicy::kLru;
    // Benchmarking aid: make every physical read sleep this long, modelling
    // a rotational disk so throughput scaling reflects I/O overlap rather
    // than the host's core count (see E14 and storage/read_only_disk.h).
    uint32_t simulated_read_latency_us = 0;

    // Memory-resident fast path (docs/PERF.md "Resident tier"): compile
    // the served tree into a pinned SoA arena at startup and route every
    // resident-eligible kind (kQueryKindTable) through it — no buffer-pool
    // pins, no page translation, no per-visit transpose, answers and visit
    // order bit-identical to the paged path. Serving mode drops the compiled
    // tree whenever a write publishes a new version and falls back to the
    // paged path until RecompileResidentTier() is called; a tree whose
    // arena would exceed kResidentMaxBytes also stays paged. Compile
    // failures are silent: residency is a performance tier, never a
    // correctness requirement.
    bool resident_tier = true;

    // Observability (docs/OBSERVABILITY.md). Sampling is per query, drawn
    // from a per-worker xorshift: 0 = tracing off (the default; queries
    // pay one pointer test), 10000 = 1%. Queries at or above the slow
    // threshold are captured in the slow-query log whether sampled or not
    // (without per-level counts unless they were also sampled).
    uint32_t trace_sample_per_million = 0;
    uint64_t slow_query_threshold_ns = 10'000'000;  // 10 ms

    Status Validate() const {
      if (num_workers < 1) {
        return Status::InvalidArgument("num_workers must be >= 1");
      }
      if (frames_per_worker < 1) {
        return Status::InvalidArgument("frames_per_worker must be >= 1");
      }
      return Status::OK();
    }
  };

  // Fixed sizes: each of the read and write request queues (Submit blocks
  // while one is full), the resident arena cap, and the slow-query log's
  // two populations (docs/OBSERVABILITY.md "Slow-query capture").
  static constexpr size_t kQueueCapacity = 1024;
  static constexpr uint64_t kResidentMaxBytes = 1ull << 32;  // 4 GiB
  static constexpr size_t kSlowLogCapacity = 64;     // retained slow entries
  static constexpr size_t kSampledLogCapacity = 64;  // sampled reservoir

  // Opens `path` read-only and serves it; the service owns the database.
  static Result<std::unique_ptr<QueryService>> Open(const std::string& path,
                                                    uint32_t page_size,
                                                    const Options& options);

  // Serves a database owned by the caller. `db` must outlive the service,
  // must not be mutated while served, and — because workers read the raw
  // disk, not the caller's buffer pool — must hold no unflushed dirty
  // pages (call db.Flush() first; bulk load flushes on completion).
  static Result<std::unique_ptr<QueryService>> Attach(const SpatialDb<D>& db,
                                                      const Options& options);

  // Opens (or creates) `path` as a ServingDb and serves it read-write:
  // kInsert/kDelete/kCheckpoint requests are accepted alongside queries.
  // Replays the WAL tail (crash recovery) before the first request runs.
  static Result<std::unique_ptr<QueryService>> OpenServing(
      const std::string& path, const ServingOptions& serving_options,
      const Options& options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;
  ~QueryService();

  // Enqueues a query (blocking while the queue is full) and returns the
  // future answer. After Shutdown(), resolves immediately with an error.
  std::future<QueryResponse<D>> Submit(QueryRequest<D> request);

  // Synchronous round trip. A read claims an idle execution context and
  // runs on the calling thread when no request this service accepted is
  // still waiting for a context; otherwise, and for every write, it is
  // Submit(...).get(). After Shutdown(), answers like Submit.
  QueryResponse<D> Execute(QueryRequest<D> request);

  // Stops accepting requests, drains the queue, joins workers. Idempotent;
  // also run by the destructor.
  void Shutdown();

  // Live aggregated snapshot across workers — safe to call from any
  // thread at any time, including while workers run (every source cell is
  // a relaxed-atomic single-writer counter). Exact once all submitted
  // futures have resolved; during load, counters may be torn *across*
  // fields (never within one).
  ServiceStats Snapshot() const;

  // Per-kind traversal counters summed over workers (live, like
  // Snapshot()).
  QueryStats KindQueryStats(QueryKind kind) const;
  uint64_t KindQueryCount(QueryKind kind) const;

  // The service's metrics registry: every layer's instruments — request /
  // queue / latency, per-kind traversal stats, buffer pool, physical I/O,
  // WAL group commit, snapshot epochs — exposed in Prometheus text format
  // by ScrapeMetrics(). Scraping is thread-safe and non-blocking for
  // workers.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }
  std::string ScrapeMetrics() const { return metrics_->ScrapeText(); }

  // Captured slow/sampled queries (ring + reservoir; DumpJson for the
  // CLI).
  const obs::SlowQueryLog& slow_query_log() const { return *slow_log_; }

  // Recompiles the resident tier from the currently published tree
  // version (serving mode pins a snapshot around the walk). Returns the
  // compile status; on failure the service simply keeps answering through
  // the paged path. InvalidArgument when the tier is disabled.
  Status RecompileResidentTier();

  // The currently published resident tree, or null when the tier is
  // disabled, over the arena cap, or invalidated by a write. Serving-mode
  // callers should treat it as advisory: workers additionally check it
  // against their pinned snapshot before trusting it.
  std::shared_ptr<const ResidentTree<D>> resident_tree() const;

  // Zeroes all per-worker counters and restarts the QPS clock. Call only
  // while no queries are in flight (between bench phases).
  void ResetStats();

  const Options& options() const { return options_; }
  uint32_t num_workers() const { return options_.num_workers; }
  const SpatialDb<D>& db() const { return *db_; }

  // Serving mode only (null otherwise). Recovery info, checkpoint control,
  // and the snapshot registry live here.
  ServingDb<D>* serving_db() { return serving_db_.get(); }
  const ServingDb<D>* serving_db() const { return serving_db_.get(); }
  bool serving() const { return serving_db_ != nullptr; }

 private:
  struct Task {
    QueryRequest<D> request;
    std::promise<QueryResponse<D>> promise;
    // Stamped by Submit; the worker's dequeue time minus this is the
    // queue-wait span.
    std::chrono::steady_clock::time_point submit_time;
  };

  // One execution context: everything a query touches while it runs.
  // Built on the service thread before workers start. Thereafter a thread
  // runs a query on it only while holding `run_mu` — its worker thread for
  // a queued request, or an Execute() caller running inline — so every
  // counter below stays single-writer, handed between threads by the
  // mutex.
  struct Worker {
    std::mutex run_mu;
    std::unique_ptr<ReadOnlyDiskView> disk;
    std::unique_ptr<BufferPool> pool;
    std::optional<RTree<D>> tree;
    LatencyHistogram histogram;
    LatencyHistogram queue_wait;
    // Physical-read latency, recorded by the disk view (miss path only).
    obs::PowerHistogram read_latency;
    std::atomic<uint64_t> ok{0};
    std::atomic<uint64_t> failed{0};
    // Reads Execute() ran on this context from the calling thread.
    obs::StatCounter inline_runs;
    // Traversal counters, sharded per kind; written once per query by the
    // context's holder, read live by Snapshot() and the metrics scrape.
    obs::AtomicQueryStats kind_stats[kNumQueryKinds];
    obs::StatCounter kind_count[kNumQueryKinds];
    // Sampled tracing: the worker's reusable trace context (armed through
    // scratch.trace only for sampled queries) and its sampling RNG.
    obs::TraceContext trace_ctx;
    uint64_t rng = 0;
    // Reusable traversal arena: after warm-up, kNN/top-k dispatches run
    // without heap allocation (docs/PERF.md).
    QueryScratch<D> scratch;
    // Serving mode: the worker's snapshot-pin slot, and the last
    // reclaim_gen it observed — when it changes, a checkpoint recycled
    // page ids and the private pool's cached images must be dropped.
    uint32_t reader_slot = 0;
    uint64_t last_reclaim_gen = 0;
    // Read-only mode only: the resident tree, set before the worker
    // thread starts and immutable afterwards, so the hot path reads it
    // with no synchronization at all. Serving workers instead take a
    // shared_ptr copy per query (the tree can be invalidated under them).
    const ResidentTree<D>* resident_fixed = nullptr;
    // Tier routing counters for resident-eligible kinds (kQueryKindTable):
    // served from the arena vs fell back to the paged path.
    obs::StatCounter tier_hits[kNumQueryKinds];
    obs::StatCounter tier_fallbacks[kNumQueryKinds];
  };

  QueryService(const SpatialDb<D>* db, std::unique_ptr<SpatialDb<D>> owned,
               const Options& options);

  Status StartWorkers();
  void RegisterMetrics();
  void CollectMetrics(obs::ExpositionWriter& writer) const;
  void WorkerLoop(Worker* worker, uint32_t worker_id);
  // Runs one read on `worker`, whose run_mu the calling thread holds: the
  // per-query body of both WorkerLoop and Execute's inline path.
  // `submit_time` is set for a queued request and empty for an inline run,
  // which waited for nothing.
  QueryResponse<D> RunQuery(
      Worker* worker, uint32_t worker_id, const QueryRequest<D>& request,
      std::optional<std::chrono::steady_clock::time_point> submit_time);
  void WriterLoop();
  void RunWriteBatch(std::vector<Task>* batch);
  // `resident` is the tree to route eligible kinds through, already
  // validated against the worker's pinned snapshot (null = paged path).
  QueryResponse<D> Dispatch(Worker* worker, const QueryRequest<D>& request,
                            const ResidentTree<D>* resident);
  // Compiles the tree version identified by (root_page, tree_size,
  // source_epoch) through a throwaway pool and publishes it under
  // resident_mu_.
  Status CompileResident(PageId root_page, uint64_t tree_size,
                         uint64_t source_epoch);
  // Writer-thread hook: drops the published resident tree once it no
  // longer matches the current snapshot.
  void DropStaleResident();

  Options options_;
  std::unique_ptr<SpatialDb<D>> owned_db_;  // Open() path; null for Attach()
  // OpenServing() path; declared before workers_ so their disk views and
  // pools die first.
  std::unique_ptr<ServingDb<D>> serving_db_;
  const SpatialDb<D>* db_;                  // always valid
  RequestQueue<Task> queue_;
  // Reads Submit accepted that no context has claimed yet. Execute runs
  // inline only while it reads zero.
  std::atomic<uint64_t> waiting_{0};
  // Serving mode: writes bypass the query queue so a burst of queries
  // cannot starve the durability path (and vice versa).
  std::unique_ptr<RequestQueue<Task>> write_queue_;
  std::thread writer_thread_;
  std::atomic<uint64_t> writes_ok_{0};
  std::atomic<uint64_t> writes_failed_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  bool reader_slots_held_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> stopped_{false};
  // Observability. Built before the workers start; collectors capture
  // `this` and read the per-worker shards at scrape time.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  // Resident tier. The published tree is swapped under resident_mu_:
  // compiled by StartWorkers / RecompileResidentTier, dropped by the
  // writer thread when a batch publishes a new version. Serving workers
  // copy the shared_ptr per query and verify (source_epoch, root_page)
  // against their pinned snapshot; read-only workers bypass the mutex via
  // Worker::resident_fixed.
  mutable std::mutex resident_mu_;
  std::shared_ptr<const ResidentTree<D>> resident_;
  std::atomic<uint64_t> resident_compiles_{0};
  std::atomic<uint64_t> resident_invalidations_{0};
  obs::PowerHistogram resident_compile_ns_;
};

extern template class QueryService<2>;
extern template class QueryService<3>;

}  // namespace spatial

#endif  // SPATIAL_SERVICE_QUERY_SERVICE_H_
