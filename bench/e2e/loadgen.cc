#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>

#include "net/wire.h"

namespace spatial {
namespace e2e {

namespace {

// A phase that waits this long for any answer has hung.
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;
// Open-loop requests a lane keeps outstanding at most. A due request
// beyond it waits in the generator and is still timed from its due time;
// 4 lanes stay below the server's 128-request admission budget, so a host
// stall delays answers instead of shedding them.
constexpr size_t kMaxInflight = 24;

}  // namespace

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::unique_ptr<Conn> Conn::Open(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Fatal(1, std::string("socket: ") + std::strerror(errno));
  std::unique_ptr<Conn> conn(new Conn(fd));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw Fatal(1, std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  WireHandshake ours;
  ours.dim = 2;
  Status sent = SendHandshake(fd, ours);
  if (!sent.ok()) throw Fatal(1, "handshake: " + sent.ToString());
  Result<WireHandshake> theirs = RecvHandshake(fd);
  if (!theirs.ok() || theirs->magic != kWireMagic ||
      theirs->version != kWireVersion || theirs->dim != 2) {
    throw Fatal(1, "handshake rejected");
  }
  return conn;
}

Conn::~Conn() { ::close(fd_); }

void Conn::Fill() {
  if (pos_ > 0 && pos_ * 2 >= in_.size()) {
    in_.erase(0, pos_);
    pos_ = 0;
  }
  char buf[64 * 1024];
  for (;;) {
    const ssize_t got = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (got > 0) {
      in_.append(buf, static_cast<size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    throw Fatal(1, got == 0 ? std::string("server closed a connection")
                            : std::string("recv: ") + std::strerror(errno));
  }
}

bool Conn::NextFrame(std::string* payload) {
  // Frame layout (net/wire.h): 4-byte little-endian length, then payload.
  if (in_.size() - pos_ < 4) return false;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(in_[pos_ + i]))
           << (8 * i);
  }
  if (len > kMaxFrameBytes) throw Fatal(1, "oversized frame");
  if (in_.size() - pos_ - 4 < len) return false;
  payload->assign(in_, pos_ + 4, len);
  pos_ += 4 + static_cast<size_t>(len);
  return true;
}

struct LoadGen::LaneState {
  const Lane* lane;
  std::deque<int64_t> inflight;  // due times of the unanswered requests
  int64_t next_due_ns;
};

LoadGen::LoadGen(const Inputs& inputs, uint64_t seed)
    : inputs_(inputs), rng_(seed) {}

int64_t LoadGen::Interarrival(double rate) {
  return static_cast<int64_t>(-std::log1p(-rng_.NextDouble()) / rate * 1e9);
}

void LoadGen::Send(LaneState* lane, int64_t due_ns, PhaseStats* stats) {
  const size_t index = inputs_.timed[next_++ % inputs_.timed.size()];
  const int64_t sent = NowNs();
  if (lane->lane->rate > 0) {
    stats->late_us.push_back(static_cast<double>(sent - due_ns) / 1e3);
  } else {
    due_ns = sent;
  }
  const Status st = SendFrame(lane->lane->conn->fd(), inputs_.frames[index]);
  if (!st.ok()) throw Fatal(1, "send: " + st.ToString());
  lane->inflight.push_back(due_ns);
  ++stats->attempted;
}

void LoadGen::Receive(LaneState* lane, int64_t end_ns, PhaseStats* stats) {
  Conn* conn = lane->lane->conn;
  conn->Fill();
  while (conn->NextFrame(&response_)) {
    Result<Resp> response = DecodeResponse<2>(
        reinterpret_cast<const uint8_t*>(response_.data()), response_.size());
    if (!response.ok()) {
      throw Fatal(1, "decode: " + response.status().ToString());
    }
    const int64_t done = NowNs();
    if (lane->inflight.empty()) throw Fatal(1, "answer without a request");
    const int64_t due_ns = lane->inflight.front();
    lane->inflight.pop_front();
    if (!response->ok()) {
      ++stats->failed;
      continue;
    }
    stats->read_us.push_back(static_cast<double>(done - due_ns) / 1e3);
    if (done <= end_ns) ++stats->reads_in_window;
  }
}

void LoadGen::Run(const std::vector<Lane>& lanes, double seconds,
                  PhaseStats* stats) {
  stats->seconds += seconds;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<LaneState> states(lanes.size());
  for (size_t i = 0; i < lanes.size(); ++i) {
    states[i].lane = &lanes[i];
    states[i].next_due_ns =
        start + (lanes[i].rate > 0 ? Interarrival(lanes[i].rate) : 0);
  }
  std::vector<pollfd> fds;
  std::vector<LaneState*> polled;
  for (;;) {
    int64_t now = NowNs();
    int64_t wake = std::numeric_limits<int64_t>::max();
    bool outstanding = false;
    for (LaneState& s : states) {
      if (s.lane->rate > 0) {
        while (s.next_due_ns <= now && s.next_due_ns < end &&
               s.inflight.size() < kMaxInflight) {
          Send(&s, s.next_due_ns, stats);
          s.next_due_ns += Interarrival(s.lane->rate);
          now = NowNs();
        }
        if (s.next_due_ns < end && s.inflight.size() < kMaxInflight) {
          wake = std::min(wake, s.next_due_ns);
        }
      } else if (s.inflight.empty() && now < end) {
        Send(&s, now, stats);
      }
      outstanding = outstanding || !s.inflight.empty();
    }
    if (now >= end && !outstanding) break;
    if (now < end) wake = std::min(wake, end);

    fds.clear();
    polled.clear();
    for (LaneState& s : states) {
      if (s.inflight.empty()) continue;
      fds.push_back(pollfd{s.lane->conn->fd(), POLLIN, 0});
      polled.push_back(&s);
    }
    const int64_t wait =
        wake == std::numeric_limits<int64_t>::max()
            ? kDrainTimeoutNs
            : std::max<int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw Fatal(1, std::string("ppoll: ") + std::strerror(errno));
    }
    if (ready == 0 && wait == kDrainTimeoutNs) {
      throw Fatal(1, "no answer for 10 s");
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents != 0) Receive(polled[i], end, stats);
    }
  }
}

}  // namespace e2e
}  // namespace spatial
