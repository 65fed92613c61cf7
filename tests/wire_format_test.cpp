// Tests for the message byte codec (cluster/message.h wire format): exact
// round trips over every kind/flag/err combination, strict rejection of
// malformed frames, and the interplay with the content checksum.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <stdexcept>

#include "cluster/message.h"
#include "util/buffer.h"

namespace pfm {
namespace {

Message sample_message() {
  Message m;
  m.kind = MsgKind::kWrite;
  m.src_node = 3;
  m.dst_node = 7;
  m.subfile = 2;
  m.resume = 11;
  m.v = 4096;
  m.w = 8191;
  m.contiguous = true;
  m.meta = "1024 {(0,63,256,4)}";
  m.payload = make_pattern_buffer(4096, 99);
  m.req_id = 0xdeadbeefcafef00dULL;
  return m;
}

void expect_equal(const Message& a, const Message& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.src_node, b.src_node);
  EXPECT_EQ(a.dst_node, b.dst_node);
  EXPECT_EQ(a.subfile, b.subfile);
  EXPECT_EQ(a.resume, b.resume);
  EXPECT_EQ(a.v, b.v);
  EXPECT_EQ(a.w, b.w);
  EXPECT_EQ(a.contiguous, b.contiguous);
  EXPECT_EQ(a.meta, b.meta);
  EXPECT_TRUE(equal_bytes(a.payload, b.payload));
  EXPECT_EQ(a.req_id, b.req_id);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.checksummed, b.checksummed);
  EXPECT_EQ(a.err, b.err);
}

TEST(WireFormat, RoundTripAllFields) {
  Message m = sample_message();
  stamp_checksum(m);
  const Buffer wire = encode_message(m);
  EXPECT_EQ(wire.size(), kWireHeaderSize + m.meta.size() + m.payload.size());
  const Message back = decode_message(wire);
  expect_equal(m, back);
  EXPECT_TRUE(verify_checksum(back));
}

TEST(WireFormat, RoundTripEveryKindAndErr) {
  for (int k = 0; k <= static_cast<int>(MsgKind::kPong); ++k) {
    for (int e = 0; e <= static_cast<int>(ErrCode::kIoError); ++e) {
      Message m;
      m.kind = static_cast<MsgKind>(k);
      m.err = static_cast<ErrCode>(e);
      m.src_node = -1;  // the defaults must survive too
      const Message back = decode_message(encode_message(m));
      EXPECT_EQ(back.kind, m.kind);
      EXPECT_EQ(back.err, m.err);
      EXPECT_EQ(back.src_node, -1);
    }
  }
}

TEST(WireFormat, RoundTripEmptyAndExtremes) {
  Message m;
  m.resume = INT64_MIN;
  m.v = INT64_MAX;
  m.w = -1;
  m.req_id = UINT64_MAX;
  expect_equal(m, decode_message(encode_message(m)));
}

TEST(WireFormat, RejectsTruncatedHeader) {
  const Buffer wire = encode_message(Message{});
  for (std::size_t n = 0; n < kWireHeaderSize; n += 7)
    EXPECT_THROW(decode_message(std::span(wire.data(), n)),
                 std::invalid_argument)
        << "accepted a " << n << "-byte header";
}

TEST(WireFormat, RejectsBadMagicAndVersion) {
  Buffer wire = encode_message(Message{});
  Buffer bad = wire;
  bad[0] = std::byte{0x00};
  EXPECT_THROW(decode_message(bad), std::invalid_argument);
  bad = wire;
  bad[4] = std::byte{2};  // version
  EXPECT_THROW(decode_message(bad), std::invalid_argument);
}

TEST(WireFormat, RejectsUnknownKindFlagsErr) {
  const Buffer wire = encode_message(Message{});
  Buffer bad = wire;
  bad[5] = std::byte{200};  // kind
  EXPECT_THROW(decode_message(bad), std::invalid_argument);
  bad = wire;
  bad[6] = std::byte{0x80};  // undefined flag bit
  EXPECT_THROW(decode_message(bad), std::invalid_argument);
  bad = wire;
  bad[7] = std::byte{99};  // err
  EXPECT_THROW(decode_message(bad), std::invalid_argument);
}

TEST(WireFormat, RejectsLengthMismatch) {
  Message m = sample_message();
  Buffer wire = encode_message(m);
  // Trailing garbage: total size no longer equals header + meta + payload.
  wire.push_back(std::byte{0});
  EXPECT_THROW(decode_message(wire), std::invalid_argument);
  wire.pop_back();
  // Truncated payload.
  wire.pop_back();
  EXPECT_THROW(decode_message(wire), std::invalid_argument);
}

TEST(WireFormat, RejectsHostilePayloadLength) {
  // payload_len = 2^63 with a 68-byte input: must reject without trying to
  // allocate (the overflow-proof size check in decode_message).
  Buffer wire = encode_message(Message{});
  wire[60 + 7] = std::byte{0x80};  // top byte of the LE u64 payload_len
  EXPECT_THROW(decode_message(wire), std::invalid_argument);
}

TEST(WireFormat, ChecksumTravelsButIsNotReverified) {
  // decode_message restores checksum/checksummed verbatim; verification is
  // the transport's job, so a corrupted payload decodes fine and then fails
  // verify_checksum — the path that counts and answers kBadChecksum.
  Message m = sample_message();
  stamp_checksum(m);
  Buffer wire = encode_message(m);
  wire[wire.size() - 1] ^= std::byte{0xff};  // flip a payload bit
  const Message back = decode_message(wire);
  EXPECT_TRUE(back.checksummed);
  EXPECT_FALSE(verify_checksum(back));
}

}  // namespace
}  // namespace pfm
