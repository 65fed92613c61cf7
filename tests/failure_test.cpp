// Failure injection: protocol errors, closed networks, malformed requests.
// A production file system must degrade with error replies, not hangs or
// dead server threads.
#include <gtest/gtest.h>

#include <thread>

#include "clusterfile/fs.h"
#include "falls/serialize.h"
#include "layout/partitions2d.h"
#include "tests/test_util.h"
#include "util/check.h"

namespace pfm {
namespace {

PartitioningPattern pattern2d(Partition2D p, std::int64_t n, std::int64_t parts) {
  auto elems = partition2d_all(p, n, n, parts);
  return make_pattern({elems.begin(), elems.end()});
}

/// Sends a raw 4-byte write with the given projection meta to the first
/// I/O node (bypassing the client), then checks that the server refuses it
/// as malformed and keeps serving good requests afterwards.
void expect_write_refused(const std::string& meta) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 8, 4));
  Message msg;
  msg.kind = MsgKind::kWrite;
  msg.dst_node = 4;  // first I/O node
  msg.meta = meta;
  msg.v = 0;
  msg.w = 3;
  msg.payload.resize(4);
  ASSERT_TRUE(fs.network().send(0, std::move(msg)));
  const auto reply = fs.network().inbox(0).receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, MsgKind::kError);
  EXPECT_EQ(reply->err, ErrCode::kMalformed);
  EXPECT_NE(reply->meta.find("bad projection meta"), std::string::npos)
      << reply->meta;
  EXPECT_EQ(fs.subfile_storage(0).size(), 0);
  // The server survived and still handles good requests afterwards.
  auto& client = fs.client(1);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 8, 8, 4);
  const std::int64_t vid = client.set_view(views[0], 64);
  const Buffer data = make_pattern_buffer(16, 1);
  Buffer back(16);
  EXPECT_NO_THROW(client.write(vid, 0, 15, data));
  EXPECT_NO_THROW(client.read(vid, 0, 15, back));
  EXPECT_EQ(back, data);
}

TEST(Failure, WriteWithoutProjectionGetsMalformed) { expect_write_refused(""); }

TEST(Failure, UnparseableProjectionGetsMalformed) {
  expect_write_refused("8 {(not falls");
}

TEST(Failure, ClientSurfacesServerErrors) {
  // A client whose awaited reply is an error must throw, not hang.
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 8, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 8, 8, 4);
  const std::int64_t vid = client.set_view(views[0], 64);
  // Sabotage: shut the matching server down and close its inbox, then
  // write. The client must throw instead of hanging on a dropped request.
  fs.server_for(0).stop();
  fs.network().inbox(4).close();
  const Buffer data = make_pattern_buffer(16, 2);
  EXPECT_THROW(client.write(vid, 0, 15, data), std::runtime_error);
  // The failed access leaves no request behind: the client keeps serving
  // the subfiles whose nodes are still up.
  const std::int64_t other = client.set_view(views[1], 64);
  EXPECT_NO_THROW(client.write(other, 0, 15, data));
  EXPECT_EQ(client.stragglers_pending(), 0u);
}

TEST(Failure, NetworkCloseUnblocksWaitingClient) {
  Clusterfile* fs =
      new Clusterfile(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 8, 4));
  auto& client = fs->client(0);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 8, 8, 4);
  const std::int64_t vid = client.set_view(views[0], 64);
  fs->server_for(0).stop();
  fs->network().close_all();
  const Buffer data = make_pattern_buffer(16, 3);
  EXPECT_THROW(client.write(vid, 0, 15, data), std::runtime_error);
  delete fs;
}

TEST(Failure, ClientRejectsBadArguments) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 8, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 8, 8, 4);
  const std::int64_t vid = client.set_view(views[0], 64);
  Buffer data(4);
  EXPECT_THROW(client.write(vid, 3, 2, data), std::invalid_argument);
  EXPECT_THROW(client.write(vid, 0, 7, data), std::invalid_argument);  // short
  EXPECT_THROW(client.write(vid + 7, 0, 3, data), std::out_of_range);
  Buffer out(4);
  EXPECT_THROW(client.read(vid, 3, 2, out), std::invalid_argument);
  EXPECT_THROW(client.read(vid + 7, 0, 3, out), std::out_of_range);
  // Negative view offsets: wholly before the view, and straddling its start.
  Buffer wide(64);
  EXPECT_THROW(client.write(vid, -64, -1, wide), std::invalid_argument);
  EXPECT_THROW(client.write(vid, -8, 55, wide), std::invalid_argument);
  EXPECT_THROW(client.read(vid, -64, -1, wide), std::invalid_argument);
  EXPECT_THROW(client.read(vid, -8, 55, wide), std::invalid_argument);
  // Views: empty, no pattern, a member past the pattern, overlapping members.
  EXPECT_THROW(client.set_view(FallsSet{}, 16), std::invalid_argument);
  EXPECT_THROW(client.set_view(views[0], 0), ContractViolation);
  EXPECT_THROW(client.set_view({make_falls(0, 15, 16, 2)}, 16), ContractViolation);
  EXPECT_THROW(client.set_view({make_falls(0, 7, 8, 1), make_falls(4, 11, 8, 1)}, 64),
               std::invalid_argument);
}

TEST(Failure, ViewOnEmptyIntersectionWritesNothing) {
  // A view entirely outside a subfile produces no targets for it; writing
  // the view touches only the subfiles it intersects.
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 8, 4));
  auto& client = fs.client(0);
  // View = rows 0-1 only: intersects subfile 0, nothing else.
  const auto views = partition2d_all(Partition2D::kRowBlocks, 8, 8, 4);
  const std::int64_t vid = client.set_view(views[0], 64);
  const Buffer data = make_pattern_buffer(16, 4);
  const auto t = client.write(vid, 0, 15, data);
  EXPECT_EQ(t.messages, 1);
  EXPECT_EQ(fs.subfile_storage(1).size(), 0);
  EXPECT_EQ(fs.subfile_storage(2).size(), 0);
  EXPECT_EQ(fs.subfile_storage(3).size(), 0);
}

}  // namespace
}  // namespace pfm
