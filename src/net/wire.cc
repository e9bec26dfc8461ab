#include "net/wire.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "core/query_stats.h"

namespace spatial {

namespace {

// ---------------------------------------------------------------------------
// Little-endian primitives.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

// Bounds-checked sequential reader. After any failed read `ok()` is false
// and every later read returns 0 — callers check once at the end (plus
// wherever a count gates an allocation).
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : p_(data), end_(data + len) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return *p_++;
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
  }

  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // Whether `count` items of `item_bytes` each could still fit in the
  // remaining payload — the allocation guard for length-prefixed arrays.
  bool CanHold(uint64_t count, size_t item_bytes) const {
    return ok_ && count * item_bytes <= Remaining();
  }

  size_t Remaining() const { return static_cast<size_t>(end_ - p_); }
  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && p_ == end_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || Remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

template <int D>
void PutPoint(std::string* out, const Point<D>& p) {
  for (int i = 0; i < D; ++i) PutF64(out, p[i]);
}

template <int D>
Point<D> GetPoint(Reader& r) {
  Point<D> p;
  for (int i = 0; i < D; ++i) p[i] = r.F64();
  return p;
}

template <int D>
void PutRect(std::string* out, const Rect<D>& rect) {
  PutPoint<D>(out, rect.lo);
  PutPoint<D>(out, rect.hi);
}

template <int D>
Rect<D> GetRect(Reader& r) {
  Rect<D> rect;
  rect.lo = GetPoint<D>(r);
  rect.hi = GetPoint<D>(r);
  return rect;
}

Status MakeStatus(uint8_t code, const std::string& msg) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case Status::Code::kNotFound:
      return Status::NotFound(msg);
    case Status::Code::kCorruption:
      return Status::Corruption(msg);
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(msg);
    case Status::Code::kOutOfRange:
      return Status::OutOfRange(msg);
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(msg);
    case Status::Code::kInternal:
      return Status::Internal(msg);
    case Status::Code::kOverloaded:
      return Status::Overloaded(msg);
  }
  return Status::Corruption("wire: unknown status code");
}

Status Truncated() { return Status::Corruption("wire: truncated frame"); }

// QueryStats travels as its counters in kQueryStatFields order, 8 bytes
// each.
void PutQueryStats(std::string* out, const QueryStats& s) {
  for (const QueryStatField& f : kQueryStatFields) PutU64(out, s.*f.member);
}

void GetQueryStats(Reader& r, QueryStats* s) {
  for (const QueryStatField& f : kQueryStatFields) (*s).*f.member = r.U64();
}

// The embedded per-shard trace record (wire v3): encoded only when the
// response's has_trace flag byte is 1.
void PutTraceRecord(std::string* out, const obs::QueryTraceRecord& t) {
  PutU32(out, t.worker);
  PutU32(out, t.k);
  for (size_t i = 0; i < sizeof(t.kind_name); ++i) {
    PutU8(out, static_cast<uint8_t>(t.kind_name[i]));
  }
  PutU64(out, t.latency_ns);
  PutU64(out, t.queue_wait_ns);
  PutU8(out, t.traced ? 1 : 0);
  PutQueryStats(out, t.stats);
  for (uint32_t n : t.nodes_per_level) PutU32(out, n);
}

Status GetTraceRecord(Reader& r, obs::QueryTraceRecord* t) {
  t->worker = static_cast<uint16_t>(r.U32());
  t->k = r.U32();
  for (size_t i = 0; i < sizeof(t->kind_name); ++i) {
    t->kind_name[i] = static_cast<char>(r.U8());
  }
  // Never trust the peer to terminate the name.
  t->kind_name[sizeof(t->kind_name) - 1] = '\0';
  t->latency_ns = r.U64();
  t->queue_wait_ns = r.U64();
  const uint8_t traced = r.U8();
  if (r.ok() && traced > 1) {
    return Status::Corruption("wire: bad trace record flag");
  }
  t->traced = traced != 0;
  GetQueryStats(r, &t->stats);
  for (uint32_t& n : t->nodes_per_level) n = r.U32();
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Request codec. Every kind shares one fixed layout (unused fields are
// zeros) plus the variable batch-point tail.

template <int D>
void EncodeRequest(const QueryRequest<D>& request, std::string* out) {
  PutU8(out, static_cast<uint8_t>(request.kind));
  PutPoint<D>(out, request.query);
  PutRect<D>(out, request.window);
  PutU32(out, request.knn.k);
  PutU8(out, static_cast<uint8_t>(request.knn.ordering));
  PutU8(out, static_cast<uint8_t>((request.knn.use_s1 ? 1 : 0) |
                                  (request.knn.use_s2 ? 2 : 0) |
                                  (request.knn.use_s3 ? 4 : 0)));
  PutU32(out, request.top_k);
  PutU64(out, request.object_id);
  // Wire version 2 additions (distance-bounded / approximate kNN and the
  // reverse-kNN scatter flag), ahead of the variable tail so the fixed
  // layout stays contiguous.
  PutF64(out, request.knn.max_distance);
  PutF64(out, request.knn.epsilon);
  PutU64(out, request.knn.max_visits);
  PutU8(out, request.rknn_candidates_only ? 1 : 0);
  // Wire version 3 additions: the propagated trace context and the
  // deadline hint, again ahead of the variable tail.
  PutU64(out, request.trace_id);
  PutU64(out, request.parent_span_id);
  PutU8(out, request.trace_sampled ? 1 : 0);
  PutU64(out, request.deadline_budget_ns);
  PutU32(out, static_cast<uint32_t>(request.batch_queries.size()));
  for (const Point<D>& p : request.batch_queries) PutPoint<D>(out, p);
}

namespace {

template <int D>
bool IsFinite(const Point<D>& p) {
  for (int d = 0; d < D; ++d) {
    if (!std::isfinite(p[d])) return false;
  }
  return true;
}

}  // namespace

template <int D>
Result<QueryRequest<D>> DecodeRequest(const uint8_t* data, size_t len) {
  Reader r(data, len);
  QueryRequest<D> request;
  const uint8_t kind = r.U8();
  if (kind >= static_cast<uint8_t>(kNumQueryKinds)) {
    return Status::Corruption("wire: unknown request kind");
  }
  request.kind = static_cast<QueryKind>(kind);
  request.query = GetPoint<D>(r);
  request.window = GetRect<D>(r);
  request.knn.k = r.U32();
  const uint8_t ordering = r.U8();
  if (ordering > static_cast<uint8_t>(AblOrdering::kNone)) {
    return Status::Corruption("wire: unknown ABL ordering");
  }
  request.knn.ordering = static_cast<AblOrdering>(ordering);
  const uint8_t flags = r.U8();
  request.knn.use_s1 = (flags & 1) != 0;
  request.knn.use_s2 = (flags & 2) != 0;
  request.knn.use_s3 = (flags & 4) != 0;
  request.top_k = r.U32();
  request.object_id = r.U64();
  request.knn.max_distance = r.F64();
  request.knn.epsilon = r.F64();
  request.knn.max_visits = r.U64();
  const uint8_t candidates_only = r.U8();
  if (candidates_only > 1) {
    return Status::Corruption("wire: bad rknn_candidates_only flag");
  }
  request.rknn_candidates_only = candidates_only != 0;
  request.trace_id = r.U64();
  request.parent_span_id = r.U64();
  const uint8_t sampled = r.U8();
  if (sampled > 1) {
    return Status::Corruption("wire: bad trace_sampled flag");
  }
  request.trace_sampled = sampled != 0;
  request.deadline_budget_ns = r.U64();
  const uint32_t num_batch = r.U32();
  if (!r.CanHold(num_batch, D * sizeof(double))) return Truncated();
  request.batch_queries.reserve(num_batch);
  for (uint32_t i = 0; i < num_batch; ++i) {
    request.batch_queries.push_back(GetPoint<D>(r));
  }
  if (!r.AtEnd()) return Truncated();
  // Well-formed bytes, bad values: a non-finite query point has no
  // meaningful neighbors, and a NaN bound makes every MBR test false.
  // Infinite window bounds stay legal here: a read window may be infinite,
  // and Rect::Empty(), the window of every kind without one, is made of
  // them. A write's window is its MBR, which must be finite; the service
  // rejects a non-finite one (Rect::IsValid) before it reaches the WAL.
  bool finite = IsFinite(request.query);
  for (const Point<D>& p : request.batch_queries) {
    finite = finite && IsFinite(p);
  }
  if (!finite) return Status::InvalidArgument("wire: non-finite query point");
  const Rect<D>& w = request.window;
  for (int d = 0; d < D; ++d) {
    if (std::isnan(w.lo[d]) || std::isnan(w.hi[d])) {
      return Status::InvalidArgument("wire: NaN window bound");
    }
  }
  return request;
}

// ---------------------------------------------------------------------------
// Response codec.

template <int D>
void EncodeResponse(const QueryResponse<D>& response, std::string* out) {
  PutU8(out, static_cast<uint8_t>(response.status.code()));
  const std::string& msg = response.status.message();
  PutU32(out, static_cast<uint32_t>(msg.size()));
  out->append(msg);
  PutU32(out, static_cast<uint32_t>(response.neighbors.size()));
  for (const Neighbor& n : response.neighbors) {
    PutU64(out, n.id);
    PutF64(out, n.dist_sq);
  }
  PutU32(out, static_cast<uint32_t>(response.entries.size()));
  for (const Entry<D>& e : response.entries) {
    PutRect<D>(out, e.mbr);
    PutU64(out, e.id);
  }
  PutU32(out, static_cast<uint32_t>(response.batch_offsets.size()));
  for (uint32_t off : response.batch_offsets) PutU32(out, off);
  PutQueryStats(out, response.stats);
  PutU64(out, response.latency_ns);
  PutU32(out, response.worker_id);
  PutU64(out, response.lsn);
  PutU64(out, response.affected);
  // Wire version 3: the shard's trace record rides the response when the
  // request was sampled (a flag byte, then the fixed-size record).
  PutU8(out, response.has_trace ? 1 : 0);
  if (response.has_trace) PutTraceRecord(out, response.trace);
}

template <int D>
Result<QueryResponse<D>> DecodeResponse(const uint8_t* data, size_t len) {
  Reader r(data, len);
  QueryResponse<D> response;
  const uint8_t code = r.U8();
  if (code > static_cast<uint8_t>(Status::Code::kOverloaded)) {
    return Status::Corruption("wire: unknown status code");
  }
  const uint32_t msg_len = r.U32();
  if (!r.CanHold(msg_len, 1)) return Truncated();
  std::string msg;
  msg.reserve(msg_len);
  for (uint32_t i = 0; i < msg_len; ++i) msg.push_back(static_cast<char>(r.U8()));
  response.status = MakeStatus(code, msg);
  const uint32_t num_neighbors = r.U32();
  if (!r.CanHold(num_neighbors, 16)) return Truncated();
  response.neighbors.reserve(num_neighbors);
  for (uint32_t i = 0; i < num_neighbors; ++i) {
    Neighbor n;
    n.id = r.U64();
    n.dist_sq = r.F64();
    response.neighbors.push_back(n);
  }
  const uint32_t num_entries = r.U32();
  if (!r.CanHold(num_entries, 2 * D * sizeof(double) + 8)) return Truncated();
  response.entries.reserve(num_entries);
  for (uint32_t i = 0; i < num_entries; ++i) {
    Entry<D> e;
    e.mbr = GetRect<D>(r);
    e.id = r.U64();
    response.entries.push_back(e);
  }
  const uint32_t num_offsets = r.U32();
  if (!r.CanHold(num_offsets, 4)) return Truncated();
  response.batch_offsets.reserve(num_offsets);
  for (uint32_t i = 0; i < num_offsets; ++i) {
    response.batch_offsets.push_back(r.U32());
  }
  GetQueryStats(r, &response.stats);
  response.latency_ns = r.U64();
  response.worker_id = r.U32();
  response.lsn = r.U64();
  response.affected = r.U64();
  const uint8_t has_trace = r.U8();
  if (r.ok() && has_trace > 1) {
    return Status::Corruption("wire: bad has_trace flag");
  }
  response.has_trace = has_trace != 0;
  if (response.has_trace) {
    SPATIAL_RETURN_IF_ERROR(GetTraceRecord(r, &response.trace));
  }
  if (!r.AtEnd()) return Truncated();
  return response;
}

// ---------------------------------------------------------------------------
// Admin frame codecs. A one-byte request (the AdminKind tag, from the
// reserved 0xF0+ range so it can never collide with a QueryKind) and a
// status + text response.

bool IsAdminRequest(const uint8_t* data, size_t len) {
  return len >= 1 && data[0] >= static_cast<uint8_t>(AdminKind::kScrapeMetrics);
}

void EncodeAdminRequest(AdminKind kind, std::string* out) {
  PutU8(out, static_cast<uint8_t>(kind));
}

Result<AdminKind> DecodeAdminRequest(const uint8_t* data, size_t len) {
  Reader r(data, len);
  const uint8_t tag = r.U8();
  if (!r.ok()) return Truncated();
  if (tag != static_cast<uint8_t>(AdminKind::kScrapeMetrics) &&
      tag != static_cast<uint8_t>(AdminKind::kDumpSlowLog)) {
    return Status::Corruption("wire: unknown admin request kind");
  }
  if (!r.AtEnd()) return Truncated();
  return static_cast<AdminKind>(tag);
}

void EncodeAdminResponse(const Status& status, const std::string& text,
                         std::string* out) {
  PutU8(out, static_cast<uint8_t>(status.code()));
  const std::string& msg = status.message();
  PutU32(out, static_cast<uint32_t>(msg.size()));
  out->append(msg);
  PutU32(out, static_cast<uint32_t>(text.size()));
  out->append(text);
}

Result<std::string> DecodeAdminResponse(const uint8_t* data, size_t len) {
  Reader r(data, len);
  const uint8_t code = r.U8();
  if (code > static_cast<uint8_t>(Status::Code::kOverloaded)) {
    return Status::Corruption("wire: unknown status code");
  }
  const uint32_t msg_len = r.U32();
  if (!r.CanHold(msg_len, 1)) return Truncated();
  std::string msg;
  msg.reserve(msg_len);
  for (uint32_t i = 0; i < msg_len; ++i) {
    msg.push_back(static_cast<char>(r.U8()));
  }
  const uint32_t text_len = r.U32();
  if (!r.CanHold(text_len, 1)) return Truncated();
  std::string text;
  text.reserve(text_len);
  for (uint32_t i = 0; i < text_len; ++i) {
    text.push_back(static_cast<char>(r.U8()));
  }
  if (!r.AtEnd()) return Truncated();
  const Status status = MakeStatus(code, msg);
  if (!status.ok()) return status;
  return text;
}

// ---------------------------------------------------------------------------
// Framed socket I/O.

namespace {

// Writes every byte of iov[0..count) with one sendmsg when the socket
// takes it all, so a frame's length prefix and payload leave together: on
// a TCP_NODELAY socket two sends are two segments, and the header-only one
// draws its own ACK. A partial write (a full send buffer, or a signal once
// some bytes are out) resumes at the first unsent byte, even when that byte
// lies inside the header. `iov` is consumed.
Status WriteAll(int fd, iovec* iov, size_t count) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that closed mid-write yields EPIPE here instead
    // of delivering SIGPIPE to the whole process.
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("wire: write failed: ") +
                              std::strerror(errno));
    }
    size_t sent = static_cast<size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (sent > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

// Reads exactly `len` bytes. `*clean_eof` (optional) is set when the peer
// closed before the first byte — the normal end of a connection.
Status ReadAll(int fd, void* data, size_t len, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, p + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("wire: read failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::NotFound("wire: connection closed");
      }
      return Status::Corruption("wire: short read (peer closed mid-frame)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status SendFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("wire: frame exceeds kMaxFrameBytes");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  uint8_t header[4];
  for (int i = 0; i < 4; ++i) header[i] = static_cast<uint8_t>(len >> (8 * i));
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  return WriteAll(fd, iov, 2);
}

Status RecvFrame(int fd, std::string* payload) {
  uint8_t header[4];
  bool clean_eof = false;
  SPATIAL_RETURN_IF_ERROR(ReadAll(fd, header, sizeof(header), &clean_eof));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<uint32_t>(header[i]) << (8 * i);
  if (len > kMaxFrameBytes) {
    return Status::Corruption("wire: frame length exceeds kMaxFrameBytes");
  }
  // The buffer grows as bytes arrive, at most kRecvChunk ahead of what has
  // been read, so a bare header cannot make this thread hold the declared
  // length. A frame up to kRecvChunk is one resize and one ReadAll.
  constexpr size_t kRecvChunk = 64 << 10;
  payload->clear();
  for (size_t got = 0; got < len;) {
    const size_t chunk = std::min<size_t>(len - got, kRecvChunk);
    payload->resize(got + chunk);
    SPATIAL_RETURN_IF_ERROR(ReadAll(fd, payload->data() + got, chunk, nullptr));
    got += chunk;
  }
  return Status::OK();
}

Status SendHandshake(int fd, const WireHandshake& hs) {
  std::string buf;
  PutU32(&buf, hs.magic);
  PutU32(&buf, hs.version);
  PutU32(&buf, hs.dim);
  iovec iov{buf.data(), buf.size()};
  return WriteAll(fd, &iov, 1);
}

Result<WireHandshake> RecvHandshake(int fd) {
  uint8_t buf[12];
  bool clean_eof = false;
  SPATIAL_RETURN_IF_ERROR(ReadAll(fd, buf, sizeof(buf), &clean_eof));
  Reader r(buf, sizeof(buf));
  WireHandshake hs;
  hs.magic = r.U32();
  hs.version = r.U32();
  hs.dim = r.U32();
  return hs;
}

template void EncodeRequest<2>(const QueryRequest<2>&, std::string*);
template void EncodeRequest<3>(const QueryRequest<3>&, std::string*);
template Result<QueryRequest<2>> DecodeRequest<2>(const uint8_t*, size_t);
template Result<QueryRequest<3>> DecodeRequest<3>(const uint8_t*, size_t);
template void EncodeResponse<2>(const QueryResponse<2>&, std::string*);
template void EncodeResponse<3>(const QueryResponse<3>&, std::string*);
template Result<QueryResponse<2>> DecodeResponse<2>(const uint8_t*, size_t);
template Result<QueryResponse<3>> DecodeResponse<3>(const uint8_t*, size_t);

}  // namespace spatial
