// Raw protocol unit tests for the I/O server: drive it with hand-built
// messages (no client) to pin down the wire contract — demultiplexing,
// per-request projections, contiguous vs scatter writes, reads, errors —
// plus the overlapping-node-set network accounting.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "clusterfile/fs.h"
#include "clusterfile/io_server.h"
#include "layout/partitions2d.h"
#include "tests/test_util.h"

namespace pfm {
namespace {

/// A two-subfile server on node 1; node 0 plays the client.
struct ServerFixture {
  Network net{2};
  IoServer server;

  ServerFixture()
      : server(net, 1, [] {
          IoServer::SubfileStorages s;
          s.emplace_back(0, std::make_unique<MemoryStorage>());
          s.emplace_back(7, std::make_unique<MemoryStorage>());
          return s;
        }()) {}

  Message request(Message msg) {
    msg.dst_node = 1;
    EXPECT_TRUE(net.send(0, std::move(msg)));
    auto reply = net.inbox(0).receive();
    EXPECT_TRUE(reply.has_value());
    return std::move(*reply);
  }
};

/// A data request for [v, w] of `subfile` carrying its projection, as the
/// client builds one.
Message data_request(MsgKind kind, int subfile, const FallsSet& proj,
                     std::int64_t period, std::int64_t v, std::int64_t w,
                     Buffer payload = {}) {
  Message msg;
  msg.kind = kind;
  msg.subfile = subfile;
  msg.meta = encode_projection(proj, period);
  msg.v = v;
  msg.w = w;
  msg.payload = std::move(payload);
  return msg;
}

TEST(IoServerRaw, DemultiplexesBySubfileId) {
  ServerFixture fx;
  // Write 4 bytes to subfile 0 and 4 scattered bytes to subfile 7.
  const Buffer p0 = make_pattern_buffer(4, 1);
  EXPECT_EQ(fx.request(data_request(MsgKind::kWrite, 0,
                                    {make_falls(0, 3, 4, 1)}, 4, 0, 3, p0))
                .kind,
            MsgKind::kAck);
  const Buffer p7 = make_pattern_buffer(4, 2);
  EXPECT_EQ(fx.request(data_request(MsgKind::kWrite, 7,
                                    {make_falls(0, 1, 4, 2)}, 8, 0, 7, p7))
                .kind,
            MsgKind::kAck);

  Buffer s0(4);
  fx.server.storage(0).read(0, s0);
  EXPECT_TRUE(equal_bytes(s0, p0));
  // Subfile 7's projection {0,1,4,5}: bytes land at 0,1 and 4,5.
  Buffer s7(6);
  fx.server.storage(7).read(0, s7);
  EXPECT_EQ(s7[0], p7[0]);
  EXPECT_EQ(s7[1], p7[1]);
  EXPECT_EQ(s7[4], p7[2]);
  EXPECT_EQ(s7[5], p7[3]);
  EXPECT_THROW(fx.server.storage(3), std::out_of_range);
}

TEST(IoServerRaw, UnknownSubfileYieldsError) {
  ServerFixture fx;
  const Message reply = fx.request(data_request(
      MsgKind::kRead, /*subfile=*/3, {make_falls(0, 1, 2, 1)}, 2, 0, 1));
  EXPECT_EQ(reply.kind, MsgKind::kError);
  EXPECT_EQ(reply.err, ErrCode::kUnknownSubfile);
  EXPECT_NE(reply.meta.find("not served here"), std::string::npos);
}

TEST(IoServerRaw, EachRequestCarriesItsProjection) {
  ServerFixture fx;
  // Two requests on the same subfile and interval with different
  // projections: each lands where its own projection says.
  const Buffer a = make_pattern_buffer(2, 3);
  const Buffer b = make_pattern_buffer(2, 4);
  EXPECT_EQ(fx.request(data_request(MsgKind::kWrite, 0,
                                    {make_falls(0, 1, 4, 1)}, 4, 0, 3, a))
                .kind,
            MsgKind::kAck);
  EXPECT_EQ(fx.request(data_request(MsgKind::kWrite, 0,
                                    {make_falls(2, 3, 4, 1)}, 4, 0, 3, b))
                .kind,
            MsgKind::kAck);
  Buffer s(4);
  fx.server.storage(0).read(0, s);
  EXPECT_EQ(s[0], a[0]);
  EXPECT_EQ(s[1], a[1]);
  EXPECT_EQ(s[2], b[0]);
  EXPECT_EQ(s[3], b[1]);
  EXPECT_EQ(fx.server.projection_cache_size(), 2u);
}

TEST(IoServerRaw, MalformedProjectionIsRefused) {
  ServerFixture fx;
  for (const char* meta : {"", "{(0,3,4,1)}", "x {(0,3,4,1)}", "0 {(0,3,4,1)}",
                           "2 {(0,3,4,1)}", "4 {}", "4 {(0,3,4,1"}) {
    Message w;
    w.kind = MsgKind::kWrite;
    w.subfile = 0;
    w.meta = meta;
    w.v = 0;
    w.w = 3;
    w.payload = make_pattern_buffer(4, 5);
    const Message reply = fx.request(std::move(w));
    EXPECT_EQ(reply.kind, MsgKind::kError) << "meta '" << meta << "'";
    EXPECT_EQ(reply.err, ErrCode::kMalformed) << "meta '" << meta << "'";
  }
  EXPECT_EQ(fx.server.storage(0).size(), 0);
  EXPECT_EQ(fx.server.projection_cache_size(), 0u);
}

TEST(IoServerRaw, ReadPastTheEndIsRefusedBeforeAllocating) {
  ServerFixture fx;
  const FallsSet whole = {make_falls(0, 1023, 1024, 1)};
  EXPECT_EQ(fx.request(data_request(MsgKind::kWrite, 0, whole, 1024, 0, 3,
                                    make_pattern_buffer(4, 6)))
                .kind,
            MsgKind::kAck);
  // 64 MiB of member bytes asked of a 4-byte subfile: refused with
  // kMalformed (so a client fails over) before any reply buffer exists.
  const Message refused = fx.request(
      data_request(MsgKind::kRead, 0, whole, 1024, 0, (std::int64_t{1} << 26) - 1));
  EXPECT_EQ(refused.kind, MsgKind::kError);
  EXPECT_EQ(refused.err, ErrCode::kMalformed);
  EXPECT_NE(refused.meta.find("past the end"), std::string::npos) << refused.meta;
  // An interval may reach past the end as long as its member bytes don't.
  const Message tail = fx.request(
      data_request(MsgKind::kRead, 0, {make_falls(0, 1, 8, 1)}, 8, 0, 7));
  ASSERT_EQ(tail.kind, MsgKind::kReadReply);
  EXPECT_EQ(tail.payload.size(), 2u);
  // The server keeps serving in-bounds reads.
  const Message ok = fx.request(data_request(MsgKind::kRead, 0, whole, 1024, 0, 3));
  ASSERT_EQ(ok.kind, MsgKind::kReadReply);
  EXPECT_TRUE(equal_bytes(ok.payload, make_pattern_buffer(4, 6)));
}

TEST(IoServerRaw, BadIntervalIsRefusedBeforeTheProjection) {
  // A negative v, an inverted interval and w = INT64_MAX (whose rank of
  // w + 1 overflows) are refused with kMalformed; no projection is parsed
  // and nothing is stored.
  ServerFixture fx;
  const FallsSet whole = {make_falls(0, 3, 4, 1)};
  const std::int64_t top = std::numeric_limits<std::int64_t>::max();
  for (const auto& [v, w] : {std::pair<std::int64_t, std::int64_t>{-1, 3},
                             {4, 3},
                             {0, top}}) {
    for (const MsgKind kind : {MsgKind::kWrite, MsgKind::kRead}) {
      SCOPED_TRACE(::testing::Message() << to_string(kind) << " [" << v << ", "
                                        << w << "]");
      const Message reply = fx.request(data_request(
          kind, 0, whole, 4, v, w,
          kind == MsgKind::kWrite ? make_pattern_buffer(4, 8) : Buffer{}));
      EXPECT_EQ(reply.kind, MsgKind::kError);
      EXPECT_EQ(reply.err, ErrCode::kMalformed);
      EXPECT_NE(reply.meta.find("bad request interval"), std::string::npos)
          << reply.meta;
    }
  }
  EXPECT_EQ(fx.server.storage(0).size(), 0);
  EXPECT_EQ(fx.server.projection_cache_size(), 0u);
}

TEST(IoServerRaw, HostileProjectionIsServedPromptly) {
  // 29 bytes of meta describing 10^8 single-byte runs per period. Walking
  // the FALLS costs the blocks a request touches, so the server answers at
  // once; a table of the period's runs would take seconds and gigabytes.
  ServerFixture fx;
  const FallsSet sparse = {make_falls(0, 0, 2, 100000000)};
  const std::int64_t period = 200000000;
  ASSERT_EQ(encode_projection(sparse, period).size(), 29u);
  const auto timed = [&](Message msg) {
    const auto t0 = std::chrono::steady_clock::now();
    Message reply = fx.request(std::move(msg));
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
    return reply;
  };
  // [64, 79] holds 8 member bytes, so an 8-byte payload matches count_in.
  const Buffer payload = make_pattern_buffer(8, 9);
  EXPECT_EQ(timed(data_request(MsgKind::kWrite, 0, sparse, period, 64, 79,
                               payload))
                .kind,
            MsgKind::kAck);
  Buffer stored(15);  // member bytes 64, 66, ..., 78
  fx.server.storage(0).read(64, stored);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(stored[2 * i], payload[i]);
  // The whole period asks for member bytes past the subfile's end.
  const Message refused =
      timed(data_request(MsgKind::kRead, 0, sparse, period, 0, period - 1));
  EXPECT_EQ(refused.kind, MsgKind::kError);
  EXPECT_EQ(refused.err, ErrCode::kMalformed);
  EXPECT_NE(refused.meta.find("past the end"), std::string::npos) << refused.meta;
  const Message ok =
      timed(data_request(MsgKind::kRead, 0, sparse, period, 64, 79));
  ASSERT_EQ(ok.kind, MsgKind::kReadReply);
  EXPECT_TRUE(equal_bytes(ok.payload, payload));
}

TEST(IoServerRaw, InterleavedHostileProjectionIsServedPromptly) {
  // 47 bytes of meta whose two members interleave, 10^8 blocks each. The
  // decoder decides their disjointness on the FALLS nodes; sorting the
  // period's runs would take seconds and gigabytes before any reply.
  ServerFixture fx;
  const std::string meta = "200000000 {(0,0,2,100000000),(1,1,2,100000000)}";
  ASSERT_EQ(meta.size(), 47u);
  const auto request = [&](MsgKind kind, Buffer payload) {
    Message msg = data_request(kind, 0, {}, 1, 64, 79, std::move(payload));
    msg.meta = meta;
    return fx.request(std::move(msg));
  };
  const auto t0 = std::chrono::steady_clock::now();
  const Buffer payload = make_pattern_buffer(16, 5);
  EXPECT_EQ(request(MsgKind::kWrite, payload).kind, MsgKind::kAck);
  const Message ok = request(MsgKind::kRead, {});
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  ASSERT_EQ(ok.kind, MsgKind::kReadReply);
  EXPECT_TRUE(equal_bytes(ok.payload, payload));
}

TEST(IoServerRaw, ReadReturnsGatheredProjection) {
  ServerFixture fx;
  const FallsSet proj = {make_falls(0, 1, 4, 2)};
  // Preload storage directly: bytes 0..5 identifiable.
  Buffer init(6);
  for (std::size_t i = 0; i < init.size(); ++i) init[i] = static_cast<std::byte>(i);
  // Write through the protocol to fill projected positions {0,1,4,5}.
  fx.request(data_request(MsgKind::kWrite, 7, proj, 8, 0, 7,
                          {init[0], init[1], init[4], init[5]}));

  const Message reply = fx.request(data_request(MsgKind::kRead, 7, proj, 8, 0, 7));
  ASSERT_EQ(reply.kind, MsgKind::kReadReply);
  ASSERT_EQ(reply.payload.size(), 4u);
  EXPECT_EQ(reply.payload[0], init[0]);
  EXPECT_EQ(reply.payload[3], init[5]);
  EXPECT_EQ(reply.subfile, 7);
  EXPECT_GT(fx.server.gather_us(), 0.0);
}

TEST(IoServerRaw, PayloadShorterThanProjectionIsAnError) {
  ServerFixture fx;
  // The projection selects 4 bytes; the payload holds 2.
  const Message reply = fx.request(data_request(
      MsgKind::kWrite, 7, {make_falls(0, 1, 4, 2)}, 8, 0, 7, Buffer(2)));
  EXPECT_EQ(reply.kind, MsgKind::kError);
  EXPECT_EQ(reply.err, ErrCode::kMalformed);
}

// The test plays the peer of a sync_subfile pull and answers with a
// kSyncReply at epoch 1 whose byte set does not describe its payload. The
// server must refuse it before storage sees a byte: the pull fails and the
// subfile keeps size 0 and epoch 0.
TEST(IoServerRaw, MalformedSyncReplyIsRefusedBeforeStorage) {
  struct Reply {
    const char* meta;
    std::size_t payload;
  };
  for (const Reply& bad : {
           // The second member's extent, 8 + s + 4, overflows int64.
           Reply{"9223372036854775807 {(0,3,4,1),(8,11,9223372036854775800,2)}", 4},
           Reply{"12 {(8,9,2,1),(0,1,2,1)}", 4},  // members out of order
           Reply{"8 {(0,3,4,1)}", 8},  // payload longer than its projection
           Reply{"0:4;", 4},           // the retired "off:len;" range list
       }) {
    SCOPED_TRACE(bad.meta);
    ServerFixture fx;
    IoServer::SyncOutcome out;
    std::thread puller([&] {
      out = fx.server.sync_subfile(0, /*peer_node=*/0, std::chrono::seconds(5),
                                   16, 0, -1);
    });
    auto req = fx.net.inbox(0).receive();
    ASSERT_TRUE(req.has_value());
    ASSERT_EQ(req->kind, MsgKind::kSyncRequest);
    Message reply;
    reply.kind = MsgKind::kSyncReply;
    reply.dst_node = 1;
    reply.subfile = 0;
    reply.req_id = req->req_id;
    reply.v = 1;  // the peer claims epoch 1
    reply.w = 0;  // a complete delta
    reply.meta = bad.meta;
    reply.payload = make_pattern_buffer(bad.payload, 7);
    EXPECT_TRUE(fx.net.send(0, std::move(reply)));
    puller.join();
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(fx.server.storage(0).size(), 0);
    EXPECT_EQ(fx.server.subfile_epoch(0), 0);
  }
}

// A reply or error that arrives after its pull timed out finds no waiter:
// it is dropped unapplied, since only the waiting call knows the epoch cap a
// chunked stream must adopt.
TEST(IoServerRaw, LateSyncAnswerIsDroppedUnapplied) {
  ServerFixture fx;
  const IoServer::SyncOutcome out = fx.server.sync_subfile(
      0, /*peer_node=*/0, std::chrono::milliseconds(20), 16, 0, -1);
  EXPECT_FALSE(out.ok);
  auto req = fx.net.inbox(0).receive();
  ASSERT_TRUE(req.has_value());
  Message reply;
  reply.kind = MsgKind::kSyncReply;
  reply.dst_node = 1;
  reply.subfile = 0;
  reply.req_id = req->req_id;
  reply.v = 1;
  reply.w = 0;
  reply.meta = encode_projection({make_falls(0, 3, 4, 1)}, 4);
  reply.payload = make_pattern_buffer(4, 7);
  Message error;
  error.kind = MsgKind::kError;
  error.dst_node = 1;
  error.req_id = req->req_id;
  error.err = ErrCode::kIoError;
  EXPECT_TRUE(fx.net.send(0, std::move(reply)));
  EXPECT_TRUE(fx.net.send(0, std::move(error)));
  // A ping behind them on the same inbox: its pong means both were handled.
  Message ping;
  ping.kind = MsgKind::kPing;
  EXPECT_EQ(fx.request(ping).kind, MsgKind::kPong);
  EXPECT_EQ(fx.server.storage(0).size(), 0);
  EXPECT_EQ(fx.server.subfile_epoch(0), 0);
  EXPECT_EQ(fx.server.reliability().errors_sent, 0);
}

// A pull must bound its chunk: the peer refuses a limit below one byte.
TEST(IoServerRaw, SyncRequestWithoutAChunkLimitIsRefused) {
  ServerFixture fx;
  Message req;
  req.kind = MsgKind::kSyncRequest;
  req.subfile = 0;
  req.w = 0;
  const Message reply = fx.request(req);
  EXPECT_EQ(reply.kind, MsgKind::kError);
  EXPECT_EQ(reply.err, ErrCode::kMalformed);
}

IoServer::SubfileStorages serve_subfile_0(std::unique_ptr<SubfileStorage> s) {
  IoServer::SubfileStorages out;
  out.emplace_back(0, std::move(s));
  return out;
}

Buffer stored_bytes(const SubfileStorage& s) {
  Buffer out(static_cast<std::size_t>(s.size()));
  s.read(0, out);
  return out;
}

// Two epoch-tracking servers: node 1 pulls subfile 0 from node 2, and node 0
// plays a client. The peer's copy predates its write log, so a fresh pull is
// a full transfer, streamed here in 16-byte chunks. A write lands on the
// peer between chunks, over bytes already streamed: the last chunk must
// adopt the epoch the stream started at, not the peer's newer one, so that
// the delta pull after it brings the racing write.
TEST(IoServerSync, ChunkedFullPullAdoptsTheEpochItStartedAt) {
  constexpr std::int64_t kEpoch = 5;
  auto copy = std::make_unique<MemoryStorage>();
  copy->write(0, make_pattern_buffer(64, 3));
  copy->set_epoch(kEpoch);
  Network net{3};
  IoServer puller(net, 1, serve_subfile_0(std::make_unique<MemoryStorage>()),
                  /*track_epochs=*/true);
  IoServer peer(net, 2, serve_subfile_0(std::move(copy)), /*track_epochs=*/true);
  const auto timeout = std::chrono::seconds(5);

  std::int64_t off = 0;
  std::int64_t cap = -1;
  int chunks = 0;
  for (;;) {
    const IoServer::SyncOutcome pull =
        puller.sync_subfile(0, /*peer_node=*/2, timeout, 16, off, cap);
    ASSERT_TRUE(pull.ok);
    EXPECT_TRUE(pull.full);
    EXPECT_EQ(pull.bytes, 16);
    ++chunks;
    if (!pull.more) break;
    if (cap < 0) {
      cap = pull.peer_epoch;
      Message write = data_request(MsgKind::kWrite, 0, {make_falls(0, 7, 8, 1)},
                                   64, 0, 7, make_pattern_buffer(8, 4));
      write.dst_node = 2;
      ASSERT_TRUE(net.send(0, std::move(write)));
      ASSERT_EQ(net.inbox(0).receive()->kind, MsgKind::kAck);
    }
    off = pull.next_offset;
  }
  EXPECT_EQ(chunks, 4);
  EXPECT_EQ(cap, kEpoch);
  EXPECT_EQ(peer.subfile_epoch(0), kEpoch + 1);
  EXPECT_EQ(puller.subfile_epoch(0), kEpoch);

  const IoServer::SyncOutcome delta =
      puller.sync_subfile(0, /*peer_node=*/2, timeout, 16, 0, -1);
  ASSERT_TRUE(delta.ok);
  EXPECT_FALSE(delta.full);
  EXPECT_FALSE(delta.more);
  EXPECT_EQ(delta.bytes, 8);
  EXPECT_EQ(puller.subfile_epoch(0), kEpoch + 1);
  EXPECT_EQ(stored_bytes(puller.storage(0)), stored_bytes(peer.storage(0)));
}

TEST(OverlapNodes, ColocatedMessagesCostNoWireTime) {
  ClusterConfig cfg;
  cfg.compute_nodes = 4;
  cfg.io_nodes = 4;
  cfg.overlap = true;
  auto elems = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  Clusterfile fs(cfg, PartitioningPattern({elems.begin(), elems.end()}, 0));
  // Compute node c and I/O endpoint (4 + c) share machine c.
  EXPECT_EQ(fs.network().machine_of(0), fs.network().machine_of(4));
  EXPECT_NE(fs.network().machine_of(0), fs.network().machine_of(5));

  // A matching r/r write from client 0 goes only to subfile 0 on its own
  // machine: zero modeled wire time for the payload.
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  fs.network().reset_accounting();
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 5);
  client.write(vid, 0, 63, data);
  EXPECT_GT(fs.network().messages_sent(), 0);
  EXPECT_DOUBLE_EQ(fs.network().simulated_wire_us(), 0.0);
}

TEST(OverlapNodes, ValidatesNodeCounts) {
  ClusterConfig cfg;
  cfg.compute_nodes = 2;
  cfg.io_nodes = 4;
  cfg.overlap = true;
  auto elems = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  EXPECT_THROW(Clusterfile(cfg, PartitioningPattern({elems.begin(), elems.end()}, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace pfm
