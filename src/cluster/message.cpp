#include "cluster/message.h"

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/crc32.h"

namespace pfm {

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kWrite: return "WRITE";
    case MsgKind::kRead: return "READ";
    case MsgKind::kReadReply: return "READ_REPLY";
    case MsgKind::kAck: return "ACK";
    case MsgKind::kError: return "ERROR";
    case MsgKind::kShutdown: return "SHUTDOWN";
    case MsgKind::kSyncRequest: return "SYNC_REQUEST";
    case MsgKind::kSyncReply: return "SYNC_REPLY";
    case MsgKind::kPing: return "PING";
    case MsgKind::kPong: return "PONG";
  }
  return "?";
}

const char* to_string(ErrCode e) {
  switch (e) {
    case ErrCode::kNone: return "NONE";
    case ErrCode::kUnknownSubfile: return "UNKNOWN_SUBFILE";
    case ErrCode::kBadChecksum: return "BAD_CHECKSUM";
    case ErrCode::kMalformed: return "MALFORMED";
    case ErrCode::kCorruptData: return "CORRUPT_DATA";
    case ErrCode::kIoError: return "IO_ERROR";
  }
  return "?";
}

Payload::Payload(Buffer bytes)
    : bytes_(bytes.empty() ? nullptr
                           : std::make_shared<Buffer>(std::move(bytes))) {}

Buffer& Payload::own() {
  if (!bytes_)
    bytes_ = std::make_shared<Buffer>();
  else if (bytes_.use_count() > 1)
    bytes_ = std::make_shared<Buffer>(*bytes_);
  return *bytes_;
}

std::span<std::byte> Payload::mutable_bytes() {
  if (empty()) return {};
  return own();
}

void Payload::resize(std::size_t n) {
  if (n != size()) own().resize(n);
}

bool Payload::operator==(const Payload& other) const {
  return size() == other.size() &&
         (empty() || std::memcmp(data(), other.data(), size()) == 0);
}

std::uint32_t message_checksum(const Message& m) {
  std::uint32_t c = crc32c(m.meta.data(), m.meta.size());
  return crc32c(m.payload.data(), m.payload.size(), c);
}

void stamp_checksum(Message& m) {
  m.checksummed = true;
  m.checksum = message_checksum(m);
}

bool verify_checksum(const Message& m) {
  return !m.checksummed || m.checksum == message_checksum(m);
}

namespace {

constexpr std::uint32_t kWireMagic = 0x314d4650u;  // "PFM1" little-endian
constexpr std::uint8_t kWireVersion = 1;
constexpr std::uint8_t kFlagContiguous = 0x01;
constexpr std::uint8_t kFlagChecksummed = 0x02;
constexpr std::uint8_t kKnownFlags = kFlagContiguous | kFlagChecksummed;
constexpr std::uint8_t kMaxKind = static_cast<std::uint8_t>(MsgKind::kPong);
constexpr std::uint8_t kMaxErr = static_cast<std::uint8_t>(ErrCode::kIoError);

// Byte-at-a-time little-endian put/get: independent of host endianness and
// alignment, and the only place the wire layout is spelled out twice.
template <typename T>
void put_le(Buffer& out, T value) {
  using U = std::make_unsigned_t<T>;
  U u = static_cast<U>(value);
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<std::byte>((u >> (8 * i)) & 0xff));
}

template <typename T>
T get_le(std::span<const std::byte> in, std::size_t off) {
  using U = std::make_unsigned_t<T>;
  U u = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    u |= static_cast<U>(std::to_integer<std::uint8_t>(in[off + i])) << (8 * i);
  return static_cast<T>(u);
}

[[noreturn]] void bad_wire(const std::string& what) {
  throw std::invalid_argument("decode_message: " + what);
}

}  // namespace

Buffer encode_message(const Message& m) {
  Buffer out;
  out.reserve(kWireHeaderSize + m.meta.size() + m.payload.size());
  put_le<std::uint32_t>(out, kWireMagic);
  out.push_back(std::byte{kWireVersion});
  out.push_back(static_cast<std::byte>(m.kind));
  std::uint8_t flags = 0;
  if (m.contiguous) flags |= kFlagContiguous;
  if (m.checksummed) flags |= kFlagChecksummed;
  out.push_back(std::byte{flags});
  out.push_back(static_cast<std::byte>(m.err));
  put_le<std::int32_t>(out, m.src_node);
  put_le<std::int32_t>(out, m.dst_node);
  put_le<std::int32_t>(out, m.subfile);
  put_le<std::int64_t>(out, m.resume);
  put_le<std::int64_t>(out, m.v);
  put_le<std::int64_t>(out, m.w);
  put_le<std::uint64_t>(out, m.req_id);
  put_le<std::uint32_t>(out, m.checksum);
  if (m.meta.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("encode_message: meta too large for the wire");
  put_le<std::uint32_t>(out, static_cast<std::uint32_t>(m.meta.size()));
  put_le<std::uint64_t>(out, static_cast<std::uint64_t>(m.payload.size()));
  const auto* meta_bytes = reinterpret_cast<const std::byte*>(m.meta.data());
  out.insert(out.end(), meta_bytes, meta_bytes + m.meta.size());
  out.insert(out.end(), m.payload.begin(), m.payload.end());
  return out;
}

Message decode_message(std::span<const std::byte> wire) {
  if (wire.size() < kWireHeaderSize) bad_wire("truncated header");
  if (get_le<std::uint32_t>(wire, 0) != kWireMagic) bad_wire("bad magic");
  if (std::to_integer<std::uint8_t>(wire[4]) != kWireVersion)
    bad_wire("unsupported version");
  const std::uint8_t kind = std::to_integer<std::uint8_t>(wire[5]);
  if (kind > kMaxKind) bad_wire("unknown message kind");
  const std::uint8_t flags = std::to_integer<std::uint8_t>(wire[6]);
  if ((flags & ~kKnownFlags) != 0) bad_wire("unknown flag bits");
  const std::uint8_t err = std::to_integer<std::uint8_t>(wire[7]);
  if (err > kMaxErr) bad_wire("unknown error code");

  const auto meta_len = get_le<std::uint32_t>(wire, 56);
  const auto payload_len = get_le<std::uint64_t>(wire, 60);
  // Exact-size check, overflow-proof: lengths are validated against what is
  // actually present before any allocation, so a hostile payload_len of
  // 2^63 rejects instead of trying to allocate.
  const std::uint64_t body = wire.size() - kWireHeaderSize;
  if (meta_len > body) bad_wire("meta length exceeds input");
  if (payload_len != body - meta_len)
    bad_wire("payload length disagrees with input size");

  Message m;
  m.kind = static_cast<MsgKind>(kind);
  m.contiguous = (flags & kFlagContiguous) != 0;
  m.checksummed = (flags & kFlagChecksummed) != 0;
  m.err = static_cast<ErrCode>(err);
  m.src_node = get_le<std::int32_t>(wire, 8);
  m.dst_node = get_le<std::int32_t>(wire, 12);
  m.subfile = get_le<std::int32_t>(wire, 16);
  m.resume = get_le<std::int64_t>(wire, 20);
  m.v = get_le<std::int64_t>(wire, 28);
  m.w = get_le<std::int64_t>(wire, 36);
  m.req_id = get_le<std::uint64_t>(wire, 44);
  m.checksum = get_le<std::uint32_t>(wire, 52);
  m.meta.assign(reinterpret_cast<const char*>(wire.data()) + kWireHeaderSize,
                meta_len);
  const std::byte* payload = wire.data() + kWireHeaderSize + meta_len;
  m.payload = Buffer(payload, payload + payload_len);
  return m;
}

}  // namespace pfm
