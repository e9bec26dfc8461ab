#include "workload.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "data/dataset.h"
#include "data/uniform.h"
#include "geom/metrics.h"
#include "net/wire.h"

namespace spatial {
namespace e2e {

namespace {

// Object ids of benchmark inserts start far above any dataset id.
constexpr uint64_t kWriteIdBase = 1ull << 40;

// Independent seeded streams, so changing how many draws one input takes
// never shifts another.
Rng StreamRng(uint64_t seed, uint64_t stream) {
  return Rng(seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1)));
}

Point<2> UniformPoint(Rng* rng) {
  return Point<2>{{rng->NextDouble(), rng->NextDouble()}};
}

Rect<2> Square(const Point<2>& center, double side) {
  Rect<2> r;
  for (int d = 0; d < 2; ++d) {
    r.lo[d] = center[d] - side / 2;
    r.hi[d] = center[d] + side / 2;
  }
  return r;
}

std::vector<Entry<2>> MakeData(size_t n, uint64_t seed) {
  Rng rng = StreamRng(seed, 0);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

// kinds-mix: per block of 100 requests, in seeded shuffled order. Listed
// in rising cost; the shares put the 50th and 90th percentiles inside the
// top-k and approx kNN costs, not on the edge between two kinds, where
// they would jump from one kind's cost to the next between runs.
constexpr std::pair<QueryKind, int> kKindsMixBlock[] = {
    {QueryKind::kRange, 30},     {QueryKind::kConstrainedKnn, 15},
    {QueryKind::kTopK, 25},      {QueryKind::kApproxKnn, 24},
    {QueryKind::kNnSkyline, 5},  {QueryKind::kReverseKnn, 1},
};

Req MixRequest(QueryKind kind, Rng* rng) {
  const Point<2> q = UniformPoint(rng);
  switch (kind) {
    case QueryKind::kRange:
      return Req::Range(Square(q, 0.01));
    case QueryKind::kConstrainedKnn:
      return Req::ConstrainedKnn(q, Square(q, 0.1), 10);
    case QueryKind::kTopK:
      return Req::TopK(q, 10);
    case QueryKind::kApproxKnn:
      return Req::ApproxKnn(q, 100, 0.25);
    case QueryKind::kNnSkyline: {
      std::vector<Point<2>> sources(3);
      for (Point<2>& s : sources) {
        for (int d = 0; d < 2; ++d) s[d] = q[d] + rng->Uniform(-0.005, 0.005);
      }
      return Req::NnSkyline(std::move(sources));
    }
    default:
      return Req::ReverseKnn(q, 1);
  }
}

std::vector<Req> MakeRequests(const WorkloadSpec& spec, bool smoke,
                              uint64_t seed) {
  Rng rng = StreamRng(seed, 1);
  std::vector<Req> requests;
  switch (spec.traffic) {
    case Traffic::kKnn1: {
      requests.resize(smoke ? 1024 : 8192);
      for (Req& r : requests) r = Req::Knn(UniformPoint(&rng), 1);
      break;
    }
    case Traffic::kKindsMix: {
      Rng mix = StreamRng(seed, 2);
      const int blocks = smoke ? 2 : 20;
      for (int b = 0; b < blocks; ++b) {
        std::vector<QueryKind> order;
        for (const auto& [kind, count] : kKindsMixBlock) {
          order.insert(order.end(), count, kind);
        }
        mix.Shuffle(&order);
        for (QueryKind kind : order) requests.push_back(MixRequest(kind, &rng));
      }
      break;
    }
  }
  return requests;
}

SpatialDb<2> BuildReferenceDb(const std::vector<Entry<2>>& data) {
  Result<SpatialDb<2>> db = SpatialDb<2>::CreateInMemory({});
  if (!db.ok()) throw Fatal(1, "reference db: " + db.status().ToString());
  Status st = db->BulkLoadData(data, BulkLoadMethod::kStr);
  if (st.ok()) st = db->Flush();
  if (!st.ok()) throw Fatal(1, "reference bulk load: " + st.ToString());
  return std::move(db).value();
}

bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
  return a.id < b.id;
}

// "" when `got` equals `want` up to the tie caveat: identical distances,
// and ids that differ only inside an equal-distance run — as a permutation
// before the k-th position, as a different choice of members at it.
std::string CompareNeighbors(const Neighbor* got, size_t n_got,
                             const Neighbor* want, size_t n_want,
                             GateStats* gate) {
  if (n_got != n_want) {
    return "neighbor count " + std::to_string(n_got) + " vs " +
           std::to_string(n_want);
  }
  const size_t n = n_got;
  if (n == 0 || std::memcmp(got, want, n * sizeof(Neighbor)) == 0) return "";
  for (size_t i = 0; i < n; ++i) {
    if (got[i].dist_sq != want[i].dist_sq) {
      return "distance differs at rank " + std::to_string(i);
    }
  }
  for (size_t a = 0; a < n;) {
    size_t b = a + 1;
    while (b < n && got[b].dist_sq == got[a].dist_sq) ++b;
    if (b < n) {
      std::vector<uint64_t> x, y;
      for (size_t i = a; i < b; ++i) {
        x.push_back(got[i].id);
        y.push_back(want[i].id);
      }
      std::sort(x.begin(), x.end());
      std::sort(y.begin(), y.end());
      if (x != y) return "ids differ inside a tie run before the k-th";
    }
    a = b;
  }
  ++gate->tie_mismatches;
  return "";
}

// The approximate kNN contract (docs/QUERIES.md): k distinct objects in
// ascending order, each at its true distance, the i-th within (1+eps) of
// the exact i-th distance.
std::string CheckApprox(const Req& request, const Resp& got, const Resp& exact,
                        const std::vector<Entry<2>>& data) {
  const std::vector<Neighbor>& g = got.neighbors;
  const std::vector<Neighbor>& t = exact.neighbors;
  if (g.size() != t.size()) {
    return "approx count " + std::to_string(g.size()) + " vs " +
           std::to_string(t.size());
  }
  const double slack =
      (1.0 + request.knn.epsilon) * (1.0 + request.knn.epsilon);
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < g.size(); ++i) {
    if (g[i].id >= data.size()) return "approx: unknown id";
    if (MinDistSq(request.query, data[g[i].id].mbr) != g[i].dist_sq) {
      return "approx: wrong distance for id " + std::to_string(g[i].id);
    }
    if (i > 0 && NeighborLess(g[i], g[i - 1])) return "approx: not sorted";
    // 1e-12: the bound is compared in squared space; allow rounding.
    if (g[i].dist_sq > slack * t[i].dist_sq * (1.0 + 1e-12)) {
      return "approx: rank " + std::to_string(i) + " breaks (1+eps)";
    }
    ids.push_back(g[i].id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "approx: duplicate id";
  }
  return "";
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"knn1-uniform", 100000, Traffic::kKnn1, 8000},
      {"kinds-mix", 100000, Traffic::kKindsMix, 5000},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, bool smoke) {
  Inputs in;
  in.data = MakeData(smoke ? spec.points / 10 : spec.points, seed);
  in.requests = MakeRequests(spec, smoke, seed);
  in.frames.resize(in.requests.size());
  for (size_t i = 0; i < in.requests.size(); ++i) {
    EncodeRequest<2>(in.requests[i], &in.frames[i]);
    if (in.requests[i].kind != QueryKind::kReverseKnn) {
      in.timed.push_back(i);
    }
  }
  return in;
}

Reference::Reference(const std::vector<Entry<2>>& data)
    : db_(BuildReferenceDb(data)) {
  QueryService<2>::Options options;
  options.num_workers = 1;
  Result<std::unique_ptr<QueryService<2>>> service =
      QueryService<2>::Attach(db_, options);
  if (!service.ok()) {
    throw Fatal(1, "reference service: " + service.status().ToString());
  }
  service_ = std::move(service).value();
}

Resp Reference::Expected(const Req& request) {
  Resp r = service_->Execute(request.kind == QueryKind::kApproxKnn
                                 ? Req::Knn(request.query, request.knn.k)
                                 : request);
  if (!r.ok()) throw Fatal(1, "reference query: " + r.status.ToString());
  if (request.kind == QueryKind::kRange) {
    std::sort(r.entries.begin(), r.entries.end(),
              [](const Entry<2>& a, const Entry<2>& b) { return a.id < b.id; });
  }
  return r;
}

std::string CheckAnswer(const Req& request, const Resp& got, const Resp& want,
                        const std::vector<Entry<2>>& data, GateStats* gate) {
  ++gate->checked;
  if (!got.ok()) return "status " + got.status.ToString();
  switch (request.kind) {
    case QueryKind::kKnn:
    case QueryKind::kConstrainedKnn:
    case QueryKind::kTopK:
      return CompareNeighbors(got.neighbors.data(), got.neighbors.size(),
                              want.neighbors.data(), want.neighbors.size(),
                              gate);
    case QueryKind::kRange:
    case QueryKind::kNnSkyline:
      return SameBytes(got.entries, want.entries) ? "" : "entries differ";
    case QueryKind::kReverseKnn:
      return SameBytes(got.neighbors, want.neighbors) ? "" : "rknn differs";
    case QueryKind::kApproxKnn:
      return CheckApprox(request, got, want, data);
    default:
      return "unexpected read kind";
  }
}

WriteStream::WriteStream(uint64_t seed) : rng_(StreamRng(seed, 3)) {}

size_t WriteStream::Next() {
  const size_t i = ops_.size();
  if (i % 5 == 4 && !live_.empty()) {
    const size_t pick = static_cast<size_t>(rng_.NextBounded(live_.size()));
    const Req& target = ops_[live_[pick]];
    live_[pick] = live_.back();
    live_.pop_back();
    ops_.push_back(Req::Delete(target.window, target.object_id));
  } else {
    ops_.push_back(
        Req::Insert(Rect<2>::FromPoint(UniformPoint(&rng_)), kWriteIdBase + i));
    live_.push_back(i);
  }
  done_.push_back(false);
  return i;
}

void WriteStream::Acked(size_t i, const Resp& response) {
  if (!response.ok()) {
    throw Fatal(1, "write failed: " + response.status.ToString());
  }
  if (ops_[i].kind == QueryKind::kDelete && response.affected != 1) {
    throw Fatal(1, "delete of acked insert " +
                       std::to_string(ops_[i].object_id) + " matched nothing");
  }
  done_[i] = true;
}

void WriteStream::Verify(ShardRouter<2>* router) const {
  std::unordered_set<uint64_t> deleted;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (!done_[i]) throw Fatal(1, "a sent write was never acked");
    if (ops_[i].kind == QueryKind::kDelete) deleted.insert(ops_[i].object_id);
  }
  for (const Req& op : ops_) {
    const Resp hits = router->Execute(Req::Range(op.window));
    if (!hits.ok()) throw Fatal(1, "verify range: " + hits.status.ToString());
    const bool present =
        std::any_of(hits.entries.begin(), hits.entries.end(),
                    [&](const Entry<2>& e) { return e.id == op.object_id; });
    if (present != (deleted.count(op.object_id) == 0)) {
      throw Fatal(1, "object " + std::to_string(op.object_id) +
                         (present ? " survived its acked delete"
                                  : " lost after its acked insert"));
    }
  }
}

}  // namespace e2e
}  // namespace spatial
