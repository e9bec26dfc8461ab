#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <utility>

namespace spatial {

namespace {

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

template <int D>
RpcServer<D>::RpcServer(ShardRouter<D>* router, const Options& options)
    : router_(router), options_(options) {
  obs::MetricsRegistry& registry = router_->metrics();
  requests_ = registry.AddCounter("spatial_rpc_requests_total",
                                  "Requests received over RPC");
  admin_requests_ = registry.AddCounter(
      "spatial_rpc_admin_requests_total",
      "Admin frames answered (metrics scrapes, slow-log dumps)");
  shed_ = registry.AddCounter(
      "spatial_rpc_shed_total",
      "Requests shed by admission control (kOverloaded)");
  deadline_shed_ = registry.AddCounter(
      "spatial_rpc_deadline_shed_total",
      "Requests shed because their deadline hint expired before execution");
  wire_errors_ = registry.AddCounter(
      "spatial_rpc_wire_errors_total",
      "Connections dropped on malformed frames or transport errors");
  connections_ = registry.AddGauge("spatial_rpc_connections",
                                   "Currently open RPC connections");
  connections_total_ = registry.AddCounter("spatial_rpc_connections_total",
                                           "Connections accepted");
}

template <int D>
Result<std::unique_ptr<RpcServer<D>>> RpcServer<D>::Start(
    ShardRouter<D>* router, const Options& options) {
  if (router == nullptr) {
    return Status::InvalidArgument("RpcServer: router is null");
  }
  SPATIAL_RETURN_IF_ERROR(options.Validate());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("RpcServer: socket: ") +
                            std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    CloseFd(fd);
    return Status::InvalidArgument("RpcServer: bad bind address " +
                                   options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = Status::Internal(std::string("RpcServer: bind: ") +
                                       std::strerror(errno));
    CloseFd(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    const Status st = Status::Internal(std::string("RpcServer: listen: ") +
                                       std::strerror(errno));
    CloseFd(fd);
    return st;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const Status st = Status::Internal(
        std::string("RpcServer: getsockname: ") + std::strerror(errno));
    CloseFd(fd);
    return st;
  }

  std::unique_ptr<RpcServer> server(new RpcServer(router, options));
  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

template <int D>
RpcServer<D>::~RpcServer() {
  Stop();
  WaitUntilStopped();
  CloseFd(listen_fd_);
}

template <int D>
void RpcServer<D>::Stop() {
  if (stopped_.exchange(true)) return;
  // Unblock accept() and every connection's read() — their next syscall
  // fails and the loops exit. Close of the fds themselves waits for the
  // owning thread (connection handlers close their own fd; the destructor
  // closes the listener).
  ::shutdown(listen_fd_, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
}

template <int D>
void RpcServer<D>::WaitUntilStopped() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;
    handlers = std::move(threads_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
}

template <int D>
void RpcServer<D>::AcceptLoop() {
  while (!stopped_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener shut down (Stop) or fatal: exit either way.
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    // A handler announces its exit as its last step under mu_, so joining
    // it here waits only for its return, and no more than max_connections
    // handler threads are ever unjoined.
    for (const std::thread::id id : exited_) {
      const auto it = std::find_if(
          threads_.begin(), threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      if (it == threads_.end()) continue;
      it->join();
      threads_.erase(it);
    }
    exited_.clear();
    if (stopped_.load(std::memory_order_relaxed) ||
        conn_fds_.size() >= options_.max_connections) {
      CloseFd(fd);
      continue;
    }
    try {
      threads_.emplace_back([this, fd] { HandleConnection(fd); });
    } catch (const std::system_error&) {
      // No thread for this connection: drop it and keep serving the
      // others.
      CloseFd(fd);
      wire_errors_->Inc();
      continue;
    }
    conn_fds_.push_back(fd);
    connections_total_->Inc();
    connections_->Set(static_cast<double>(conn_fds_.size()));
  }
}

template <int D>
void RpcServer<D>::HandleConnection(int fd) {
  // Handshake: expect the client's, answer with ours. Any mismatch drops
  // the connection before a single frame is parsed.
  bool handshaken = false;
  {
    Result<WireHandshake> hs = RecvHandshake(fd);
    if (hs.ok() && hs->magic == kWireMagic && hs->version == kWireVersion &&
        hs->dim == static_cast<uint32_t>(D)) {
      WireHandshake ours;
      ours.dim = static_cast<uint32_t>(D);
      handshaken = SendHandshake(fd, ours).ok();
    }
    if (!handshaken) wire_errors_->Inc();
  }

  std::string payload;
  std::string reply;
  while (handshaken && !stopped_.load(std::memory_order_relaxed)) {
    const Status recv = RecvFrame(fd, &payload);
    if (!recv.ok()) {
      // kNotFound = the client closed cleanly between frames.
      if (!recv.IsNotFound()) wire_errors_->Inc();
      break;
    }
    const auto received = std::chrono::steady_clock::now();

    // Admin frames answer inline and skip admission control, the served
    // budget, and the request counter — a saturated or nearly-max_requests
    // server must still answer a metrics scrape without disturbing the
    // query budget scripted drivers count on.
    if (IsAdminRequest(reinterpret_cast<const uint8_t*>(payload.data()),
                       payload.size())) {
      admin_requests_->Inc();
      Result<AdminKind> kind = DecodeAdminRequest(
          reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
      reply.clear();
      if (!kind.ok()) {
        EncodeAdminResponse(kind.status(), "", &reply);
      } else if (*kind == AdminKind::kScrapeMetrics) {
        EncodeAdminResponse(Status::OK(), router_->ScrapeMetrics(), &reply);
      } else {
        EncodeAdminResponse(Status::OK(), router_->trace_log().DumpJson(),
                            &reply);
      }
      if (!SendFrame(fd, reply).ok()) {
        wire_errors_->Inc();
        break;
      }
      continue;
    }
    requests_->Inc();

    QueryResponse<D> response;
    Result<QueryRequest<D>> request = DecodeRequest<D>(
        reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
    if (!request.ok()) {
      response.status = request.status();
    } else if (request->deadline_budget_ns != 0 &&
               ElapsedNs(received) >= request->deadline_budget_ns) {
      // The caller's remaining patience elapsed before we could start
      // (or it sent 1 to say it already had): shed without touching a
      // shard. Deliberately not counted in shed_ — operators alert on
      // capacity sheds and deadline sheds separately.
      deadline_shed_->Inc();
      response.status =
          Status::Overloaded("deadline expired before execution");
    } else {
      // Admission control: reserve a slot or shed. The increment happens
      // before the router sees the request, so the budget bounds shard
      // queue depth too.
      const uint32_t pending =
          in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (pending > options_.max_pending) {
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
        shed_->Inc();
        response.status =
            Status::Overloaded("server at max_pending; retry later");
      } else {
        response = router_->Execute(*request);
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
      }
    }

    reply.clear();
    EncodeResponse<D>(response, &reply);
    if (!SendFrame(fd, reply).ok()) {
      wire_errors_->Inc();
      break;
    }

    const uint64_t done = served_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.max_requests != 0 && done >= options_.max_requests) {
      Stop();
      break;
    }
  }

  CloseFd(fd);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < conn_fds_.size(); ++i) {
    if (conn_fds_[i] == fd) {
      conn_fds_.erase(conn_fds_.begin() + i);
      break;
    }
  }
  connections_->Set(static_cast<double>(conn_fds_.size()));
  exited_.push_back(std::this_thread::get_id());
}

template class RpcServer<2>;
template class RpcServer<3>;

}  // namespace spatial
