#ifndef SPATIAL_BENCH_E2E_LOADGEN_H_
#define SPATIAL_BENCH_E2E_LOADGEN_H_

// The load generator: one thread driving raw wire connections. Frames are
// encoded once (workload.h Inputs) and pipelined with SendFrame; answers
// come back through ppoll, non-blocking reads and DecodeResponse. One
// thread keeps open-loop sends on time where a blocking thread per
// connection ran milliseconds late. RecvFrame is not used: the server
// writes a frame's length prefix and payload separately, and a server
// thread preempted between the two would stall a blocking reader.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workload.h"

namespace spatial {
namespace e2e {

// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

// One handshaken TCP connection to the RPC server.
class Conn {
 public:
  static std::unique_ptr<Conn> Open(uint16_t port);  // throws Fatal
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn();

  int fd() const { return fd_; }

  // Appends whatever the socket holds, without blocking. Throws Fatal when
  // the server closed the connection or the read failed.
  void Fill();

  // Pops the next complete frame's payload into *payload; false when no
  // complete frame is buffered. Throws Fatal on an oversized length.
  bool NextFrame(std::string* payload);

 private:
  explicit Conn(int fd) : fd_(fd) {}
  int fd_;
  std::string in_;   // bytes received, not yet consumed
  size_t pos_ = 0;   // start of the first unconsumed byte in in_
};

// One connection's traffic in a phase.
struct Lane {
  Conn* conn = nullptr;
  double rate = 0.0;  // open loop at this many requests/s (Poisson);
                      // 0 = closed loop with one request outstanding
};

struct PhaseStats {
  double seconds = 0.0;
  // Per completed request: open loop from its due time, closed loop from
  // its send. Failed requests are counted in `failed`, not sampled here.
  std::vector<double> read_us;
  std::vector<double> late_us;  // open loop: send time minus due time
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK answers: errors and admission sheds
  uint64_t reads_in_window = 0;  // answered before the phase ended
};

class LoadGen {
 public:
  // `inputs` must outlive the generator.
  LoadGen(const Inputs& inputs, uint64_t seed);

  // Sends for `seconds`, then waits for every outstanding answer, adding
  // what it measured to *stats. Throws Fatal on a transport error.
  void Run(const std::vector<Lane>& lanes, double seconds, PhaseStats* stats);

 private:
  struct LaneState;

  void Send(LaneState* lane, int64_t due_ns, PhaseStats* stats);
  // Accounts every complete answer the lane's connection has buffered.
  void Receive(LaneState* lane, int64_t end_ns, PhaseStats* stats);
  int64_t Interarrival(double rate);

  const Inputs& inputs_;
  Rng rng_;
  size_t next_ = 0;  // position in inputs_.timed
  std::string response_;
};

}  // namespace e2e
}  // namespace spatial

#endif  // SPATIAL_BENCH_E2E_LOADGEN_H_
