// The RPC front door end to end: a real TCP round trip must return exactly
// what the router returns locally, handshake mismatches must be refused,
// admission control must shed with kOverloaded at the pending budget,
// max_requests must stop the server cleanly, exited connection threads
// must be joined while the server runs, and a frame must be served however
// the client's writes split it.

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "net/client.h"
#include "net/wire.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::vector<Entry<2>> MakeData(size_t n, uint64_t seed = 33) {
  Rng rng(seed);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

struct Fixture {
  explicit Fixture(uint32_t read_latency_us = 0) {
    ShardSet<2>::Options options;
    options.num_shards = 2;
    options.page_size = 512;
    options.buffer_pages = 64;
    options.service.num_workers = 2;
    options.service.frames_per_worker = 32;
    options.service.simulated_read_latency_us = read_latency_us;
    auto built = ShardSet<2>::Build(MakeData(1000), options);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    set = std::move(*built);
    router = std::make_unique<ShardRouter<2>>(set.get());
  }

  std::unique_ptr<ShardSet<2>> set;
  std::unique_ptr<ShardRouter<2>> router;
};

TEST(RpcServerTest, RoundTripMatchesLocalRouter) {
  Fixture fx;
  auto server = RpcServer<2>::Start(fx.router.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_NE((*server)->port(), 0);

  auto client = RpcClient<2>::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Rng rng(3);
  for (int i = 0; i < 25; ++i) {
    const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    const QueryRequest<2> request = QueryRequest<2>::Knn(q, 7);
    const QueryResponse<2> want = fx.router->Execute(request);
    auto got = (*client)->Call(request);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got->status.ok());
    ASSERT_EQ(got->neighbors.size(), want.neighbors.size());
    EXPECT_EQ(0, std::memcmp(got->neighbors.data(), want.neighbors.data(),
                             want.neighbors.size() * sizeof(Neighbor)));
  }

  // Range over RPC too.
  const Rect<2> window = Rect<2>::FromCorners({{0.2, 0.2}}, {{0.6, 0.7}});
  const QueryResponse<2> want = fx.router->Execute(QueryRequest<2>::Range(window));
  auto got = (*client)->Call(QueryRequest<2>::Range(window));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->entries.size(), want.entries.size());
  EXPECT_EQ(0, std::memcmp(got->entries.data(), want.entries.data(),
                           want.entries.size() * sizeof(Entry<2>)));

  // The server counts a request *after* flushing its reply, so the last
  // response can reach us a beat before the counter ticks.
  for (int spin = 0; (*server)->requests_served() < 26 && spin < 1000; ++spin) {
    std::this_thread::yield();
  }
  EXPECT_GE((*server)->requests_served(), 26u);
  const std::string scrape = fx.router->ScrapeMetrics();
  EXPECT_NE(scrape.find("spatial_rpc_requests_total"), std::string::npos);
  EXPECT_NE(scrape.find("spatial_rpc_connections"), std::string::npos);
}

TEST(RpcServerTest, RefusesDimensionMismatch) {
  Fixture fx;
  auto server = RpcServer<2>::Start(fx.router.get(), {});
  ASSERT_TRUE(server.ok());
  // A 3-D client against a 2-D server: the server drops the connection
  // during the handshake, so Connect fails.
  auto client = RpcClient<3>::Connect("127.0.0.1", (*server)->port());
  EXPECT_FALSE(client.ok());
}

TEST(RpcServerTest, ShedsAtPendingBudget) {
  // Slow shards (simulated read latency) + a budget of 1 in-flight request:
  // concurrent clients must observe kOverloaded sheds, and every shed must
  // be a well-formed response on a healthy connection.
  Fixture fx(/*read_latency_us=*/1000);
  typename RpcServer<2>::Options options;
  options.max_pending = 1;
  auto server = RpcServer<2>::Start(fx.router.get(), options);
  ASSERT_TRUE(server.ok());

  constexpr int kThreads = 4;
  std::atomic<uint64_t> ok{0}, shed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      auto client = RpcClient<2>::Connect("127.0.0.1", (*server)->port());
      ASSERT_TRUE(client.ok());
      Rng rng(100 + t);
      // Keep hammering until the budget has demonstrably shed, with a
      // generous cap so the test cannot spin forever.
      for (int i = 0; i < 500 && shed.load() == 0; ++i) {
        const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
        auto r = (*client)->Call(QueryRequest<2>::Knn(q, 5));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        if (r->status.ok()) {
          ok.fetch_add(1);
          ASSERT_GT(r->neighbors.size(), 0u);
        } else {
          ASSERT_TRUE(r->status.IsOverloaded()) << r->status.ToString();
          shed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(shed.load(), 0u);
  EXPECT_EQ((*server)->requests_shed(), shed.load());
}

TEST(RpcServerTest, MaxRequestsStopsServer) {
  Fixture fx;
  typename RpcServer<2>::Options options;
  options.max_requests = 10;
  auto server = RpcServer<2>::Start(fx.router.get(), options);
  ASSERT_TRUE(server.ok());

  auto client = RpcClient<2>::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    auto r = (*client)->Call(QueryRequest<2>::Knn({{0.5, 0.5}}, 3));
    if (!r.ok()) break;  // server stopped mid-stream
    ++completed;
  }
  EXPECT_EQ(completed, 10);
  (*server)->WaitUntilStopped();
  EXPECT_EQ((*server)->requests_served(), 10u);
}

// This process's VmSize in KiB, from /proc/self/status.
uint64_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

TEST(RpcServerTest, ExitedHandlerThreadsAreJoined) {
  // An exited handler thread keeps its stack mapped until it is joined,
  // so a server that joined only at Stop grew by one stack per connection
  // it ever accepted (~1.6 GiB over 200). Exited handlers must be joined
  // as the server goes.
  Fixture fx;
  auto server = RpcServer<2>::Start(fx.router.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();
  // One connection with one kNN call. It returns once the handler has
  // closed its side (the connection gauge reads 0), so the next
  // connection's handler starts after this one has exited.
  auto serve_one = [&] {
    {
      auto client = RpcClient<2>::Connect("127.0.0.1", port);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      auto r = (*client)->Call(QueryRequest<2>::Knn({{0.5, 0.5}}, 3));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    }
    for (int spin = 0; spin < 10'000; ++spin) {
      if (fx.router->ScrapeMetrics().find("\nspatial_rpc_connections 0\n") !=
          std::string::npos) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    FAIL() << "the handler did not close its connection";
  };

  // The first handlers settle the allocator's per-thread arenas, which
  // would otherwise count as growth.
  for (int i = 0; i < 8; ++i) serve_one();
  const uint64_t before_kib = VmSizeKib();
  ASSERT_GT(before_kib, 0u);
  for (int i = 0; i < 200; ++i) serve_one();
  const uint64_t after_kib = VmSizeKib();
  EXPECT_LT(after_kib, before_kib + 128 * 1024)
      << "VmSize grew from " << before_kib << " KiB to " << after_kib
      << " KiB";

  (*server)->Stop();
  (*server)->WaitUntilStopped();
  EXPECT_EQ((*server)->requests_served(), 208u);
}

// A handshaken TCP connection whose bytes leave exactly as the test writes
// them, one segment per send (TCP_NODELAY). Its receive timeout turns a
// server that never answers into a failed read rather than a hung test.
// -1 on failure.
int ConnectRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  const timeval limit{5, 0};
  WireHandshake ours;
  ours.dim = 2;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit)) != 0 ||
      !SendHandshake(fd, ours).ok() || !RecvHandshake(fd).ok()) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// The length prefix and the payload of `request`'s frame.
std::string FrameBytes(const QueryRequest<2>& request) {
  std::string payload;
  EncodeRequest<2>(request, &payload);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string frame;
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>(len >> (8 * i)));
  }
  return frame + payload;
}

void SendRaw(int fd, const std::string& bytes) {
  ASSERT_EQ(static_cast<ssize_t>(bytes.size()),
            ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL));
}

// Byte equality of two answer arrays. An empty vector's data() may be
// null, which memcmp must not be given.
template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// Reads one answer from `fd` and checks it against RpcClient::Call's
// answer to the same request.
void ExpectSameAnswer(int fd, RpcClient<2>* client,
                      const QueryRequest<2>& request) {
  std::string payload;
  ASSERT_TRUE(RecvFrame(fd, &payload).ok());
  auto got = DecodeResponse<2>(reinterpret_cast<const uint8_t*>(payload.data()),
                               payload.size());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = client->Call(request);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got->status.ok()) << got->status.ToString();
  ASSERT_TRUE(want->status.ok()) << want->status.ToString();
  EXPECT_TRUE(SameBytes(got->neighbors, want->neighbors));
  EXPECT_TRUE(SameBytes(got->entries, want->entries));
  EXPECT_EQ(0, std::memcmp(&got->stats, &want->stats, sizeof(QueryStats)));
}

TEST(RpcServerTest, ServesFramesSplitAcrossWrites) {
  // SendFrame writes a frame whole, so no in-tree client splits one. Other
  // clients may: the server must reassemble a header that arrives in
  // pieces, a payload that trails its header, and two frames in one read.
  Fixture fx;
  auto server = RpcServer<2>::Start(fx.router.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = RpcClient<2>::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const int fd = ConnectRaw((*server)->port());
  ASSERT_GE(fd, 0);
  const auto pause = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  // The header as 1 + 3 bytes, then the payload.
  const QueryRequest<2> knn = QueryRequest<2>::Knn({{0.3, 0.6}}, 5);
  std::string frame = FrameBytes(knn);
  SendRaw(fd, frame.substr(0, 1));
  pause();
  SendRaw(fd, frame.substr(1, 3));
  pause();
  SendRaw(fd, frame.substr(4));
  ExpectSameAnswer(fd, client->get(), knn);

  // The header, then the payload 1 ms later.
  const QueryRequest<2> range = QueryRequest<2>::Range(
      Rect<2>::FromCorners({{0.1, 0.2}}, {{0.5, 0.4}}));
  frame = FrameBytes(range);
  SendRaw(fd, frame.substr(0, 4));
  pause();
  SendRaw(fd, frame.substr(4));
  ExpectSameAnswer(fd, client->get(), range);

  // Two whole frames in one write: two answers, in order.
  const QueryRequest<2> first = QueryRequest<2>::Knn({{0.9, 0.1}}, 3);
  const QueryRequest<2> second = QueryRequest<2>::Knn({{0.2, 0.8}}, 8);
  SendRaw(fd, FrameBytes(first) + FrameBytes(second));
  ExpectSameAnswer(fd, client->get(), first);
  ExpectSameAnswer(fd, client->get(), second);
  ::close(fd);
}

}  // namespace
}  // namespace spatial
