#ifndef SPATIAL_NET_SERVER_H_
#define SPATIAL_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "shard/shard_router.h"

namespace spatial {

// The binary RPC front door: a thread-per-connection TCP server that
// decodes wire frames (net/wire.h), runs them through a ShardRouter, and
// streams the answers back. One server thread blocks in accept(); each
// connection gets its own handler thread, whose scatter-gather into the
// shard worker pools is where the real concurrency lives. The accept
// thread joins the handlers that have exited before it starts the next,
// so no more than max_connections handler threads are ever unjoined; a
// connection whose handler thread cannot be created is closed and counted
// in spatial_rpc_wire_errors_total.
//
// Admission control: one atomic budget of in-flight requests across all
// connections (`max_pending`). A request arriving at the budget is shed
// immediately — the client receives a well-formed response whose status is
// kOverloaded and no shard ever sees the request — so overload degrades
// into fast, explicit rejections instead of unbounded queueing (E19
// measures the accepted-request p99 under 2x overload). A wire-v3 request
// carrying a deadline hint whose budget has already elapsed on arrival is
// shed the same way (spatial_rpc_deadline_shed_total): work the caller has
// stopped waiting for must not occupy a shard worker.
//
// Admin frames (net/wire.h AdminKind) are answered inline, bypass both
// admission checks, and do not count toward max_requests — an overloaded
// or nearly-done server must still be observable.
//
// Instruments land in the router's registry, so one scrape covers the
// connection gauge, shed counter, and request totals alongside the router
// and per-shard families.
template <int D>
class RpcServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  // 0 = let the kernel pick (see port())
    uint32_t max_connections = 64;
    // In-flight request budget; at the budget, requests shed kOverloaded.
    uint32_t max_pending = 128;
    // Stop after completing this many requests, 0 = serve until Stop().
    // Gives scripted drivers (tools/cli_test.sh) a clean shutdown without
    // signal handling.
    uint64_t max_requests = 0;

    Status Validate() const {
      if (max_connections < 1) {
        return Status::InvalidArgument("RpcServer: max_connections >= 1");
      }
      if (max_pending < 1) {
        return Status::InvalidArgument("RpcServer: max_pending >= 1");
      }
      return Status::OK();
    }
  };

  // Binds, listens, and starts the accept thread. `router` must outlive
  // the server.
  static Result<std::unique_ptr<RpcServer>> Start(ShardRouter<D>* router,
                                                  const Options& options);

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;
  ~RpcServer();

  // The bound port (the kernel's choice when Options::port was 0).
  uint16_t port() const { return port_; }

  // Signals shutdown: stops accepting, shuts down live connections.
  // Idempotent, callable from any thread — including a connection handler
  // (max_requests does exactly that). Does not join.
  void Stop();

  // Joins the accept thread and every connection thread not yet joined.
  // Call from the owning thread; returns once the server is fully
  // quiesced.
  void WaitUntilStopped();

  uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  uint64_t requests_shed() const { return shed_->Value(); }

 private:
  RpcServer(ShardRouter<D>* router, const Options& options);

  void AcceptLoop();
  void HandleConnection(int fd);

  ShardRouter<D>* router_;
  Options options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopped_{false};
  std::atomic<uint32_t> in_flight_{0};
  std::atomic<uint64_t> served_{0};
  std::thread accept_thread_;
  std::mutex mu_;  // guards threads_, exited_ and conn_fds_
  std::vector<std::thread> threads_;     // handlers not yet joined
  std::vector<std::thread::id> exited_;  // handlers that have returned
  std::vector<int> conn_fds_;            // live connection sockets
  bool joined_ = false;
  // Instruments (owned by the router's registry).
  obs::Counter* requests_;
  obs::Counter* admin_requests_;
  obs::Counter* shed_;
  obs::Counter* deadline_shed_;
  obs::Counter* wire_errors_;
  obs::Gauge* connections_;
  obs::Counter* connections_total_;
};

extern template class RpcServer<2>;
extern template class RpcServer<3>;

}  // namespace spatial

#endif  // SPATIAL_NET_SERVER_H_
