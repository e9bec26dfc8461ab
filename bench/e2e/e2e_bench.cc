// End-to-end benchmark of the sharded RPC stack (bench/e2e/README.md).
//
// One process runs one workload against an in-process deployment: a
// 4-shard serving ShardSet (file + WAL, 1 worker per shard, 1 KiB pages,
// default pools, resident tier on), a ShardRouter with bound streaming and
// tracing off, and an RpcServer on 127.0.0.1. One generator thread drives
// it over 4 raw wire connections. Phases, as shares of --seconds:
//
//   setup     one build of the deployment; setup_s is the median of it
//             and 4 more builds timed at the end of the run
//   gate      every pool request over RPC against the single-tree oracle
//   warm-up   0.05 (at least 1 s), the load phase's traffic
//   idle      0.25, 1 connection, 1 request outstanding
//   saturate  0.25, closed loop, 1 request outstanding per connection
//   load      0.45, open loop at the workload's frozen rate
//
// Idle, saturate and load each run in kRounds slices, interleaved over the
// run. --trace 1 instead runs idle (0.15), saturate (0.15), the layer
// ladder's reads (up to 0.4, at most 4000 requests) and writes (0.05), and
// prints the per-layer metrics.
//
// The last stdout line is the result object; exit 1 voids the run (a wrong
// answer or a broken deployment) and prints none.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "geom/metrics_simd.h"
#include "ladder.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "percentile.h"
#include "shard/shard_router.h"
#include "shard/shard_set.h"
#include "workload.h"

namespace spatial {
namespace e2e {
namespace {

constexpr uint32_t kShards = 4;
constexpr size_t kConns = 4;
constexpr int kSetupBuilds = 5;
constexpr int kRounds = 15;
constexpr double kWarmUpShare = 0.05;
constexpr double kMinWarmUpSeconds = 1.0;
constexpr double kIdleShare = 0.25;
constexpr double kSaturateShare = 0.25;
constexpr double kLoadShare = 0.45;
// Open-loop sends later than this count in gen.late_over_1ms_frac.
constexpr double kLateLimitUs = 1000.0;
constexpr int kServerNice = 10;

struct Options {
  std::string workload;
  uint64_t seed = 19950523;
  double seconds = 12.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
  std::string work_dir = "e2e-work";
  std::string commit = "unknown";
};

// Removes its directory tree when destroyed.
class ScopedDir {
 public:
  explicit ScopedDir(std::string path) : path_(std::move(path)) {
    std::filesystem::create_directories(path_);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  ~ScopedDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Everything a build stands up. Members tear down in reverse order: the
// generator's connections, the server, the router, the shards, and last
// the shard files.
class Deployment {
 public:
  Deployment(std::vector<Entry<2>> data, const std::string& dir) : dir_(dir) {
    ShardSet<2>::Options options;
    options.num_shards = kShards;
    options.serving = true;
    options.dir = dir_.path();
    options.service.num_workers = 1;
    Result<std::unique_ptr<ShardSet<2>>> shards =
        ShardSet<2>::Build(std::move(data), options);
    if (!shards.ok()) throw Fatal(1, "shards: " + shards.status().ToString());
    shards_ = std::move(shards).value();
    router_ = std::make_unique<ShardRouter<2>>(shards_.get());
    Result<std::unique_ptr<RpcServer<2>>> server =
        RpcServer<2>::Start(router_.get(), {});
    if (!server.ok()) throw Fatal(1, "server: " + server.status().ToString());
    server_ = std::move(server).value();
    for (size_t c = 0; c < kConns; ++c) {
      conns_.push_back(Conn::Open(server_->port()));
    }
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ShardSet<2>& shards() { return *shards_; }
  ShardRouter<2>& router() { return *router_; }
  uint16_t port() const { return server_->port(); }
  Conn* conn(size_t i) { return conns_[i].get(); }

 private:
  ScopedDir dir_;
  std::unique_ptr<ShardSet<2>> shards_;
  std::unique_ptr<ShardRouter<2>> router_;
  std::unique_ptr<RpcServer<2>> server_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

// Runs `start` on a thread whose nice value is raised by kServerNice; every
// thread it starts (shard workers and writers, the RPC server's accept and
// connection threads) inherits it. The generator thread keeps its nice
// value, so the system under test cannot starve the instrument timing it:
// on a real deployment client and server do not share CPUs. Returns
// whether the nice value took.
template <typename Fn>
bool StartServerSide(Fn&& start) {
  std::exception_ptr error;
  bool niced = false;
  std::thread thread([&] {
    niced = ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()),
                          kServerNice) == 0;
    try {
      start();
    } catch (...) {
      error = std::current_exception();
    }
  });
  thread.join();
  if (error) std::rethrow_exception(error);
  return niced;
}

// Per-shard service counters summed over the deployment.
struct ShardTotals {
  LatencySnapshot queue_wait;
  BufferStats buffer;
  IoStats io;
  uint64_t resident_hits = 0;
  uint64_t resident_fallbacks = 0;
};

ShardTotals SumShards(ShardSet<2>& shards) {
  ShardTotals t;
  for (uint32_t s = 0; s < shards.num_shards(); ++s) {
    const ServiceStats st = shards.shard(s).Snapshot();
    t.queue_wait += st.queue_wait;
    t.buffer += st.buffer;
    t.io += st.io;
    t.resident_hits += st.resident_hits;
    t.resident_fallbacks += st.resident_fallbacks;
  }
  return t;
}

// WAL group-commit counters summed over the shards: fsync ns and records
// per commit, as (sum, count) pairs.
struct WalTotals {
  uint64_t fsync_ns = 0, commits = 0, records = 0, checkpoints = 0;
};

WalTotals SumWal(ShardSet<2>& shards) {
  WalTotals t;
  for (uint32_t s = 0; s < shards.num_shards(); ++s) {
    const ServingDb<2>& db = *shards.shard(s).serving_db();
    const obs::HistogramSnapshot fsync = db.wal_metrics().fsync_ns.Snapshot();
    t.fsync_ns += fsync.total;
    t.commits += fsync.total_count;
    t.records += db.wal_metrics().commit_records.Snapshot().total;
    t.checkpoints += db.checkpoints();
  }
  return t;
}

// A /proc/self/status field in MiB: "VmRSS" or "VmHWM".
double StatusMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw Fatal(1, "cannot read /proc/self/status");
  char line[256];
  double kb = 0.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtod(line + len + 1, nullptr);
    }
  }
  std::fclose(f);
  if (kb <= 0.0) {
    throw Fatal(1, std::string("no ") + field + " in /proc/self/status");
  }
  return kb / 1024.0;
}

// Restarts VmHWM from the current RSS.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

GateStats RunGate(const Inputs& inputs, const std::vector<Resp>& expected,
                  uint16_t port) {
  Result<std::unique_ptr<RpcClient<2>>> client =
      RpcClient<2>::Connect("127.0.0.1", port);
  if (!client.ok()) throw Fatal(1, "gate: " + client.status().ToString());
  GateStats gate;
  for (size_t i = 0; i < inputs.requests.size(); ++i) {
    const Req& request = inputs.requests[i];
    Result<Resp> got = (*client)->Call(request);
    if (!got.ok()) throw Fatal(1, "gate: " + got.status().ToString());
    const std::string why =
        CheckAnswer(request, *got, expected[i], inputs.data, &gate);
    if (!why.empty()) {
      throw Fatal(1, "gate: request " + std::to_string(i) + " (" +
                         QueryKindName(request.kind) + "): " + why);
    }
  }
  return gate;
}

void Append(const PhaseStats& slice, PhaseStats* total) {
  total->seconds += slice.seconds;
  total->read_us.insert(total->read_us.end(), slice.read_us.begin(),
                        slice.read_us.end());
  total->late_us.insert(total->late_us.end(), slice.late_us.begin(),
                        slice.late_us.end());
  total->attempted += slice.attempted;
  total->failed += slice.failed;
  total->reads_in_window += slice.reads_in_window;
}

std::string Num(double v) {
  if (!std::isfinite(v)) throw Fatal(1, "non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void PrintMetrics(const char* heading, const Metrics& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Run(const Options& opt) {
  const WorkloadSpec* spec = FindWorkload(opt.workload);  // ParseArgs checked
  const double S = opt.seconds;

  Inputs inputs = MakeInputs(*spec, opt.seed, opt.smoke);
  std::unique_ptr<Reference> reference;
  StartServerSide(
      [&] { reference = std::make_unique<Reference>(inputs.data); });
  std::vector<Resp> expected;
  expected.reserve(inputs.requests.size());
  for (const Req& request : inputs.requests) {
    expected.push_back(reference->Expected(request));
  }
  if (!opt.trace) reference.reset();  // only traced runs use it again

  const ScopedDir work(opt.work_dir + "/" + spec->name + "-" +
                       std::to_string(::getpid()));
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  bool niced = true;
  const auto build = [&](int i) {
    std::vector<Entry<2>> data = inputs.data;
    const std::string dir = work.path() + "/build-" + std::to_string(i);
    niced = StartServerSide([&] {
      const int64_t t0 = NowNs();
      dep = std::make_unique<Deployment>(std::move(data), dir);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }) && niced;
  };
  // The run serves the process's first build: each later build leaves a
  // different amount of memory behind in the allocator, so memory is read
  // from a first build only, and the other setup builds run at the end.
  malloc_trim(0);
  const bool peak_reset = ResetPeakRss();
  build(0);
  uint64_t arena_bytes = 0, compile_ns = 0;
  bool hugepages = true;
  for (uint32_t s = 0; s < kShards; ++s) {
    const auto tree = dep->shards().shard(s).resident_tree();
    if (tree == nullptr) throw Fatal(1, "a shard has no resident tier");
    arena_bytes += tree->arena_bytes();
    compile_ns += tree->compile_ns();
    hugepages = hugepages && tree->hugepage_backed();
  }

  const GateStats gate = RunGate(inputs, expected, dep->port());

  std::vector<Lane> idle{{dep->conn(0), 0.0}};
  std::vector<Lane> saturate, load;
  for (size_t c = 0; c < kConns; ++c) {
    saturate.push_back({dep->conn(c), 0.0});
    load.push_back({dep->conn(c), spec->rate / kConns});
  }

  LoadGen gen(inputs, opt.seed);
  const WalTotals wal_before = SumWal(dep->shards());
  {
    PhaseStats warm;
    gen.Run(load, std::max(kWarmUpShare * S, kMinWarmUpSeconds), &warm);
  }
  // Live memory while serving, read before the generator's sample buffers
  // grow with the run. Memory the allocator merely retains after frees is
  // trimmed first; the peak since the build stays a diagnostic.
  const double peak_mb = StatusMb("VmHWM");
  malloc_trim(0);
  const double rss_mb = StatusMb("VmRSS");

  PhaseStats idle_run, sat, run;
  Metrics metrics, diagnostics;
  SpanLog spans;
  uint64_t ladder_calls = 0;
  if (!opt.trace) {
    // Each phase runs in kRounds slices interleaved over the run, and each
    // timing metric is the median over its slices. A host stall that spans
    // fewer than half of the slices then barely moves it, where it would
    // shift a rate or percentile pooled over the whole run.
    std::vector<double> idle_p50, qps, load_p50;
    for (int r = 0; r < kRounds; ++r) {
      PhaseStats i, s, l;
      gen.Run(idle, kIdleShare * S / kRounds, &i);
      gen.Run(saturate, kSaturateShare * S / kRounds, &s);
      gen.Run(load, kLoadShare * S / kRounds, &l);
      idle_p50.push_back(Median(i.read_us));
      qps.push_back(static_cast<double>(s.reads_in_window) / s.seconds);
      load_p50.push_back(Median(l.read_us));
      Append(i, &idle_run);
      Append(s, &sat);
      Append(l, &run);
    }
    dep.reset();
    for (int i = 1; i < kSetupBuilds; ++i) {
      build(i);
      dep.reset();
    }
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"rss_mb", rss_mb, "MiB"},
        {"qps_max", Median(qps), "1/s"},
        {"idle_p50_us", Median(idle_p50), "us"},
    };
    diagnostics = {
        {"idle_p99_us", Percentile(idle_run.read_us, 0.99), "us"},
        {"idle_samples", static_cast<double>(idle_run.read_us.size()), "count"},
        {"load_p50_us", Median(load_p50), "us"},
        {"load_p90_us", Percentile(run.read_us, 0.9), "us"},
        {"load_p99_us", Percentile(run.read_us, 0.99), "us"},
        {"load_p999_us", Percentile(run.read_us, 0.999), "us"},
        {"load_samples", static_cast<double>(run.read_us.size()), "count"},
        {"saturate_p50_us", Median(sat.read_us), "us"},
        {"rss_peak_mb", peak_mb, "MiB"},
    };
  } else {
    gen.Run(idle, 0.15 * S, &idle_run);
    const double idle_p50 = Median(idle_run.read_us);
    for (uint32_t s = 0; s < kShards; ++s) dep->shards().shard(s).ResetStats();
    gen.Run(saturate, 0.15 * S, &sat);
    const ShardTotals shard = SumShards(dep->shards());
    WriteStream writes(opt.seed);
    Metrics ladder;
    ladder_calls = RunLadder({&inputs, &expected, reference.get(),
                              &dep->router(), dep->port(), &writes},
                             0.4 * S, 0.05 * S, &spans, &ladder, &diagnostics);
    writes.Verify(&dep->router());
    const WalTotals wal = SumWal(dep->shards());
    const uint64_t fetches = shard.buffer.logical_fetches;
    const uint64_t eligible = shard.resident_hits + shard.resident_fallbacks;
    const auto ladder_value = [&](const char* name) {
      for (const Metric& m : ladder) {
        if (m.name == name) return m.value;
      }
      throw Fatal(1, std::string("ladder lacks ") + name);
    };
    metrics = ladder;
    metrics.insert(
        metrics.end(),
        {
            {"storage.pool_hit_ratio",
             fetches == 0 ? 1.0
                          : static_cast<double>(shard.buffer.hits) /
                                static_cast<double>(fetches),
             "ratio"},
            {"storage.reads_per_query",
             static_cast<double>(shard.io.physical_reads) /
                 static_cast<double>(sat.read_us.size()),
             "count"},
            {"storage.resident_hit_ratio",
             eligible == 0 ? 0.0
                           : static_cast<double>(shard.resident_hits) /
                                 static_cast<double>(eligible),
             "ratio"},
            {"storage.arena_mb", static_cast<double>(arena_bytes) / (1 << 20),
             "MiB"},
            {"storage.compile_ms", static_cast<double>(compile_ns) / 1e6, "ms"},
            {"service.queue_wait_us", shard.queue_wait.Mean() / 1e3, "us"},
            {"wal.fsync_us",
             static_cast<double>(wal.fsync_ns - wal_before.fsync_ns) / 1e3 /
                 static_cast<double>(wal.commits - wal_before.commits),
             "us"},
            {"wal.records_per_commit",
             static_cast<double>(wal.records - wal_before.records) /
                 static_cast<double>(wal.commits - wal_before.commits),
             "count"},
            {"trace.overhead_pct",
             (ladder_value("net.rpc_us") - idle_p50) / idle_p50 * 100.0, "%"},
        });
    diagnostics.push_back({"idle_p50_us", idle_p50, "us"});
    diagnostics.push_back(
        {"db.checkpoints",
         static_cast<double>(wal.checkpoints - wal_before.checkpoints),
         "count"});
  }
  const uint64_t attempted =
      idle_run.attempted + sat.attempted + run.attempted + ladder_calls;
  const uint64_t failed = idle_run.failed + sat.failed + run.failed;
  diagnostics.push_back({"gate.checked", static_cast<double>(gate.checked),
                         "count"});
  diagnostics.push_back({"gate.tie_mismatches",
                         static_cast<double>(gate.tie_mismatches), "count"});
  diagnostics.push_back(
      {"fail_frac",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio"});
  // How late the generator sent its open-loop requests. A host stall makes
  // it late; latency is timed from the due time either way.
  size_t late = 0;
  for (double us : run.late_us) late += us > kLateLimitUs ? 1 : 0;
  diagnostics.push_back({"gen.late_p50_us", Median(run.late_us), "us"});
  diagnostics.push_back(
      {"gen.late_p99_us", Percentile(run.late_us, 0.99), "us"});
  diagnostics.push_back(
      {"gen.late_over_1ms_frac",
       run.late_us.empty() ? 0.0
                           : static_cast<double>(late) /
                                 static_cast<double>(run.late_us.size()),
       "ratio"});

  char nproc[16];
  std::snprintf(nproc, sizeof(nproc), "%ld", ::sysconf(_SC_NPROCESSORS_ONLN));
  const std::vector<std::pair<std::string, std::string>> header = {
      {"workload", spec->name},
      {"seed", std::to_string(opt.seed)},
      {"seconds", Num(S)},
      {"trace", opt.trace ? "1" : "0"},
      {"smoke", opt.smoke ? "1" : "0"},
      {"nproc", nproc},
      {"kernel_isa", KernelIsaName(ActiveKernelIsa())},
      {"hugepages", hugepages ? "1" : "0"},
      {"peak_rss_reset", peak_reset ? "1" : "0"},
      {"server_nice", niced ? std::to_string(kServerNice) : "0"},
      {"commit", opt.commit},
  };
  std::printf("#");
  for (const auto& [key, value] : header) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");
  PrintMetrics(opt.trace ? "per-layer metrics:" : "end-to-end metrics:",
               metrics);
  PrintMetrics("diagnostics (not gated):", diagnostics);

  const std::string result = "{\"correct\": true, \"attempted\": " +
                             std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + MetricsJson(metrics) + "}";
  if (!opt.out_dir.empty()) {
    std::filesystem::create_directories(opt.out_dir);
    const std::string stem = opt.out_dir + "/" + spec->name + "-s" +
                             std::to_string(opt.seed) +
                             (opt.trace ? "-trace" : "");
    std::string full = "{\"header\": {";
    for (size_t i = 0; i < header.size(); ++i) {
      full += (i == 0 ? "\"" : ", \"") + header[i].first + "\": \"" +
              header[i].second + "\"";
    }
    full += "}, \"result\": " + result +
            ", \"diagnostics\": " + MetricsJson(diagnostics) + "}\n";
    std::FILE* f = std::fopen((stem + ".json").c_str(), "w");
    if (f == nullptr || std::fputs(full.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      throw Fatal(1, "cannot write " + stem + ".json");
    }
    if (opt.trace) spans.WriteJson(stem + "-spans.json", spec->name, opt.seed);
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--out-dir DIR] [--work-dir DIR] "
               "[--commit SHA]\nworkloads:");
  for (const WorkloadSpec& spec : AllWorkloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) Usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage();
      opt.trace = value == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--commit") {
      opt.commit = value;
    } else {
      Usage();
    }
    if (end != nullptr && *end != '\0') Usage();
  }
  if (FindWorkload(opt.workload) == nullptr) Usage();
  return opt;
}

}  // namespace
}  // namespace e2e
}  // namespace spatial

int main(int argc, char** argv) {
  const spatial::e2e::Options options = spatial::e2e::ParseArgs(argc, argv);
  // The default 50 us timer slack lands on every ppoll wakeup of the open
  // loop; threads started later inherit the 1 ns setting.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  try {
    return spatial::e2e::Run(options);
  } catch (const spatial::e2e::Fatal& f) {
    std::fprintf(stderr, "e2e_bench: %s\n", f.what());
    return f.code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
