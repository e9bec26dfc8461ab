#ifndef SPATIAL_NET_WIRE_H_
#define SPATIAL_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "service/request.h"

namespace spatial {

// The binary RPC wire protocol (docs/SHARDING.md "Wire protocol").
//
// Every message is a frame: a 4-byte little-endian payload length followed
// by the payload. A connection opens with a 12-byte fixed handshake in
// each direction — magic "SPRC", protocol version, dimensionality — and
// then alternates request / response frames until either side closes.
//
// All integers are little-endian; doubles are IEEE-754 bit patterns in
// little-endian byte order. Every field of every request kind is encoded
// in a fixed order (unused fields ride along as zeros), so one codec
// handles all kinds and a frame's layout depends only on its variable-
// length tails (batch points, neighbors, entries, status message).
//
// Decoders never trust the peer: lengths are checked against the frame,
// counts against kMaxFrameBytes-implied limits, and any truncated or
// oversized frame returns kCorruption without reading out of bounds.

inline constexpr uint32_t kWireMagic = 0x43525053;  // "SPRC" little-endian
// Version 3 adds the propagated trace context (trace id, parent span,
// sample flag, deadline hint) to request frames, the optional embedded
// QueryTraceRecord to response frames, and the admin frame family.
// Handshakes require an exact version match, so v2 peers are rejected
// before any frame is parsed.
inline constexpr uint32_t kWireVersion = 3;

// Upper bound on one frame's payload. Large enough for any realistic
// batch; small enough that a corrupt length prefix cannot drive an
// allocation bomb.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

struct WireHandshake {
  uint32_t magic = kWireMagic;
  uint32_t version = kWireVersion;
  uint32_t dim = 0;
};

// ---------------------------------------------------------------------------
// Admin frame family (wire v3). Admin requests share the request frame
// stream but carry a tag byte from a reserved high range, so a server can
// tell them from query kinds (which are small enum values) by looking at
// the first payload byte. They bypass admission control — an overloaded
// server must still be observable — and answer with an admin response
// frame: status code + message + one opaque text payload (Prometheus
// exposition for kScrapeMetrics, the router slow-log JSON for
// kDumpSlowLog).
enum class AdminKind : uint8_t {
  kScrapeMetrics = 0xF0,
  kDumpSlowLog = 0xF1,
};

// True when a request payload's first byte is in the admin range; such
// payloads must be decoded with DecodeAdminRequest, not DecodeRequest.
bool IsAdminRequest(const uint8_t* data, size_t len);

void EncodeAdminRequest(AdminKind kind, std::string* out);
Result<AdminKind> DecodeAdminRequest(const uint8_t* data, size_t len);

void EncodeAdminResponse(const Status& status, const std::string& text,
                         std::string* out);
// On wire success, returns the text payload; an application-level error
// status travels inside the frame and is surfaced as the Result's error.
Result<std::string> DecodeAdminResponse(const uint8_t* data, size_t len);

// ---------------------------------------------------------------------------
// Payload codecs. Encoders append to *out; decoders parse [data, data+len).

template <int D>
void EncodeRequest(const QueryRequest<D>& request, std::string* out);

template <int D>
Result<QueryRequest<D>> DecodeRequest(const uint8_t* data, size_t len);

template <int D>
void EncodeResponse(const QueryResponse<D>& response, std::string* out);

template <int D>
Result<QueryResponse<D>> DecodeResponse(const uint8_t* data, size_t len);

// ---------------------------------------------------------------------------
// Framed socket I/O (blocking, retrying on EINTR; used by both ends).

// Writes the 4-byte length prefix and the payload in one write call when
// the socket takes them whole, so a small frame leaves as one segment.
Status SendFrame(int fd, const std::string& payload);

// Reads one complete frame payload into *payload. A clean peer close
// before the first length byte returns kNotFound (end of stream); any
// other short read or an oversized length returns kCorruption.
Status RecvFrame(int fd, std::string* payload);

Status SendHandshake(int fd, const WireHandshake& hs);
Result<WireHandshake> RecvHandshake(int fd);

extern template void EncodeRequest<2>(const QueryRequest<2>&, std::string*);
extern template void EncodeRequest<3>(const QueryRequest<3>&, std::string*);
extern template Result<QueryRequest<2>> DecodeRequest<2>(const uint8_t*,
                                                         size_t);
extern template Result<QueryRequest<3>> DecodeRequest<3>(const uint8_t*,
                                                         size_t);
extern template void EncodeResponse<2>(const QueryResponse<2>&, std::string*);
extern template void EncodeResponse<3>(const QueryResponse<3>&, std::string*);
extern template Result<QueryResponse<2>> DecodeResponse<2>(const uint8_t*,
                                                           size_t);
extern template Result<QueryResponse<3>> DecodeResponse<3>(const uint8_t*,
                                                           size_t);

}  // namespace spatial

#endif  // SPATIAL_NET_WIRE_H_
