#ifndef SPATIAL_BENCH_E2E_WORKLOAD_H_
#define SPATIAL_BENCH_E2E_WORKLOAD_H_

// Workload definitions, seeded input generation, the single-tree oracle,
// the answer gate and the write stream of the end-to-end benchmark.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/spatial_db.h"
#include "service/query_service.h"
#include "service/request.h"
#include "shard/shard_router.h"

namespace spatial {
namespace e2e {

using Req = QueryRequest<2>;
using Resp = QueryResponse<2>;

// A failure that voids the run: main() unwinds (stopping every server and
// worker thread on the way), prints `what()` and exits with `code`.
struct Fatal : std::runtime_error {
  Fatal(int exit_code, const std::string& message)
      : std::runtime_error(message), code(exit_code) {}
  int code;
};

// The read requests a workload sends (README "Workloads").
enum class Traffic { kKnn1, kKindsMix };

// One row per workload; every workload serves uniform points. The
// open-loop rates are frozen here: 15-25% of the workload's qps_max on the
// 4-vCPU host the benchmark was calibrated on (README "Workloads").
struct WorkloadSpec {
  const char* name;
  size_t points;
  Traffic traffic;
  double rate;  // open-loop requests/s, spread over the connections
};

const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

// Everything generated from the seed. The program under test only ever
// sees these requests: the gate and the traced run's ladder send the whole
// pool, the timed phases cycle through `timed`.
struct Inputs {
  std::vector<Entry<2>> data;  // ids 0..n-1, data[i].id == i
  std::vector<Req> requests;
  std::vector<std::string> frames;  // requests[i], wire-encoded once
  // The requests the timed phases send: all but kReverseKnn. One reverse
  // kNN, a candidate phase on every shard and then sequential cross-shard
  // verification rounds, takes ~7 ms, so the timed metrics would follow
  // how the host treats that burst more than the other engines (README
  // "Workloads").
  std::vector<size_t> timed;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, bool smoke);

// The single-tree oracle: the whole dataset bulk loaded into one in-memory
// tree and served by a one-worker QueryService (resident tier on).
class Reference {
 public:
  explicit Reference(const std::vector<Entry<2>>& data);

  QueryService<2>& service() { return *service_; }
  const SpatialDb<2>& db() const { return db_; }

  // The answer the sharded deployment must reproduce. kRange comes back
  // sorted by id (the router's order); kApproxKnn gets the exact kNN with
  // the same k, which its (1+epsilon) contract is checked against.
  Resp Expected(const Req& request);

 private:
  SpatialDb<2> db_;
  std::unique_ptr<QueryService<2>> service_;
};

// Counts of the answer gate. Permutations inside an equal-distance run are
// the documented tie caveat (docs/SHARDING.md): counted, never fatal.
struct GateStats {
  uint64_t checked = 0;
  uint64_t tie_mismatches = 0;
};

// Returns a description of the first real mismatch, or "" when `got`
// matches `want` for this request.
std::string CheckAnswer(const Req& request, const Resp& got, const Resp& want,
                        const std::vector<Entry<2>>& data, GateStats* gate);

// The write traffic of the traced run's write rung: per 5 writes, 4
// inserts of new uniform points, then a delete of a seeded-random earlier
// insert. The writes are executed synchronously, so the insert a delete
// names is always applied first.
class WriteStream {
 public:
  explicit WriteStream(uint64_t seed);

  // Returns the index of the next write; request(i) is its request.
  size_t Next();
  const Req& request(size_t i) const { return ops_[i]; }

  // Records the server's answer to write i. Throws Fatal on a write the
  // server failed or a delete that matched nothing.
  void Acked(size_t i, const Resp& response);

  // Every acked insert must be found by a point range query and every
  // acked delete must be absent. Throws Fatal otherwise.
  void Verify(ShardRouter<2>* router) const;

 private:
  Rng rng_;
  std::vector<Req> ops_;
  std::vector<bool> done_;
  std::vector<size_t> live_;  // sent inserts not yet chosen for deletion
};

}  // namespace e2e
}  // namespace spatial

#endif  // SPATIAL_BENCH_E2E_WORKLOAD_H_
