// Message types for the simulated cluster. The Clusterfile protocol (paper
// section 8) runs between compute-node clients and I/O-node servers over
// these messages; the payload carries serialized FALLS sets or raw data.
//
// Reliability fields (DESIGN.md "Failure model"): every client request
// carries a globally unique req_id that replies echo, so clients match
// replies instead of trusting arrival order, servers deduplicate
// retransmits by (client, req_id), and stale or duplicated replies are
// discarded instead of crashing the await loop. When the network has
// checksums enabled (any installed fault plan enables them), meta and
// payload are covered by a CRC-32C so injected bit flips are detected at
// the receiver rather than silently scattered into subfiles.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "util/buffer.h"

namespace pfm {

enum class MsgKind : std::uint8_t {
  kWrite,        ///< client -> server: write [vS, wS] of the subfile
  kRead,         ///< client -> server: read [vS, wS] of the subfile
  kReadReply,    ///< server -> client: data for a read
  kAck,          ///< server -> client: write acknowledgment
  kError,        ///< server -> client: request failed; meta holds the reason
  kShutdown,     ///< stop the server loop (immune to fault injection)
  kSyncRequest,  ///< server -> server: restarted or migrating replica asks a
                 ///< peer for the write ranges it missed; v carries the
                 ///< requester's epoch, w a chunk byte limit (>= 1),
                 ///< resume a full-transfer offset
  kSyncReply,    ///< server -> server: the missed bytes as a kWrite carries
                 ///< them (meta a projection, payload its bytes in order);
                 ///< v carries the peer's — possibly partial — epoch, w two
                 ///< flags (bit 0 full transfer, bit 1 chunk-limited),
                 ///< resume the next offset of a chunk-limited full transfer
  kPing,         ///< detector -> server: liveness probe; v carries a probe
                 ///< sequence number the pong echoes
  kPong,         ///< server -> detector: liveness answer
};

const char* to_string(MsgKind k);

/// Structured reason on a kError reply: the client's reliable request layer
/// dispatches on the code (resend the request, fail over, or give up)
/// instead of parsing the human-readable meta string.
enum class ErrCode : std::uint8_t {
  kNone = 0,
  kUnknownSubfile,  ///< request routed to a node not serving that subfile
  kBadChecksum,     ///< request arrived corrupted — recoverable: resend
  kMalformed,       ///< request failed validation (bad projection meta, a
                    ///< payload that does not match it, a read past the
                    ///< subfile's end); not retryable on this replica
  kCorruptData,     ///< at-rest data failed its block checksum — terminal for
                    ///< this replica: re-reading cannot fix persistent rot,
                    ///< so the client fails over instead of resending
  kIoError,         ///< storage returned EIO — recoverable: resend (errors
                    ///< are never reply-cached, so the retry re-executes)
};

const char* to_string(ErrCode e);

/// Server-side protocol failure that should travel back to the client as a
/// kError reply with a structured code (IoServer catches these per request).
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ErrCode code() const { return code_; }

 private:
  ErrCode code_;
};

/// The data bytes of a message, reference-counted and copy-on-write.
/// Copying a Payload — and so a Message — shares the bytes instead of
/// copying them: a replicated write's fan-out requests, their retransmits
/// and its detached stragglers all carry the one buffer the client
/// gathered. mutable_bytes() and resize() copy the bytes first when
/// another Payload still shares them, so a writer never changes what a
/// sharer sees.
class Payload {
 public:
  Payload() = default;
  Payload(Buffer bytes);  // implicit: `payload = buffer` takes it over

  std::size_t size() const { return bytes_ ? bytes_->size() : 0; }
  bool empty() const { return size() == 0; }
  const std::byte* data() const { return bytes_ ? bytes_->data() : nullptr; }
  const std::byte* begin() const { return data(); }
  const std::byte* end() const { return data() + size(); }
  const std::byte& operator[](std::size_t i) const { return (*bytes_)[i]; }

  /// Writable bytes, made this Payload's own first.
  std::span<std::byte> mutable_bytes();
  /// Buffer::resize (new bytes zeroed), made this Payload's own first.
  void resize(std::size_t n);

  bool operator==(const Payload& other) const;

 private:
  /// The buffer, copied first when another Payload shares it. Testing
  /// use_count() is safe because only one thread uses a given Payload at a
  /// time: the count rises only when a sharing Payload is copied, and at a
  /// count of 1 the only sharer is this one, on the calling thread.
  Buffer& own();

  std::shared_ptr<Buffer> bytes_;  ///< null: empty
};

struct Message {
  MsgKind kind = MsgKind::kAck;
  int src_node = -1;
  int dst_node = -1;
  int subfile = 0;            ///< which subfile on the I/O node (demux key)
  std::int64_t resume = 0;    ///< sync traffic: full-transfer resume offset
  std::int64_t v = 0;         ///< interval lower limit (subfile space)
  std::int64_t w = 0;         ///< interval upper limit (subfile space)
  bool contiguous = false;    ///< write fast path: payload maps contiguously
  /// kWrite / kRead: the target's subfile projection PROJ_S^{V∩S} as
  /// encode_projection's "<period> <falls>" — every data request carries
  /// its own, so servers keep no per-view state. kSyncReply: the byte set
  /// it carries, in the same form. kError: the reason.
  std::string meta;
  Payload payload;            ///< data bytes: kWrite, kReadReply, kSyncReply

  /// Request id, unique across the process; replies echo it. 0 means "no
  /// reliability protocol" (raw test traffic) — servers skip dedup for it.
  std::uint64_t req_id = 0;
  /// CRC-32C over meta then payload; valid only when `checksummed` is set.
  std::uint32_t checksum = 0;
  bool checksummed = false;
  ErrCode err = ErrCode::kNone;  ///< reason on kError replies

  /// Bytes this message occupies on the simulated wire (header + meta +
  /// payload), used by the network cost model.
  std::int64_t wire_bytes() const {
    return 64 + static_cast<std::int64_t>(meta.size() + payload.size());
  }
};

/// CRC-32C over the message's meta and payload bytes. Routing fields are
/// not covered, so a request sealed once can be re-aimed at any replica.
std::uint32_t message_checksum(const Message& m);
/// Computes and stores the checksum, marking the message checksummed.
void stamp_checksum(Message& m);
/// True when the message is not checksummed or its checksum matches.
bool verify_checksum(const Message& m);

// ---------------------------------------------------------------------------
// Wire format (ROADMAP item 4 groundwork: a real transport needs bytes, the
// in-process Channel does not). Little-endian, fixed 68-byte header followed
// by meta then payload:
//
//   offset  size  field
//        0     4  magic "PFM1" (0x31 0x4d 0x46 0x50 as a LE u32)
//        4     1  version (1)
//        5     1  kind        (validated against MsgKind)
//        6     1  flags       bit0 contiguous, bit1 checksummed; other bits
//                             must be zero
//        7     1  err         (validated against ErrCode)
//        8     4  src_node    (i32)
//       12     4  dst_node    (i32)
//       16     4  subfile     (i32)
//       20     8  resume      (i64)
//       28     8  v           (i64)
//       36     8  w           (i64)
//       44     8  req_id      (u64)
//       52     4  checksum    (u32; meaningful only with the checksummed flag)
//       56     4  meta_len    (u32)
//       60     8  payload_len (u64)
//       68     meta_len bytes of meta, then payload_len bytes of payload
//
// decode_message is strict: it throws std::invalid_argument — never any
// other exception type — on short input, bad magic/version, unknown kind,
// err or flag bits, or when meta_len/payload_len disagree with the actual
// input size (both truncated and trailing bytes are rejected). It does NOT
// verify the content checksum: transports call verify_checksum separately so
// corruption is counted and answered (kBadChecksum) rather than treated as a
// framing error.

/// Fixed header size of the byte encoding.
inline constexpr std::size_t kWireHeaderSize = 68;

/// Serializes a message to its byte encoding.
Buffer encode_message(const Message& m);
/// Parses a byte encoding produced by encode_message (or by a peer
/// implementation). Throws std::invalid_argument on any malformed input.
Message decode_message(std::span<const std::byte> wire);

}  // namespace pfm
