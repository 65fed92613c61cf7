// Tests for the simulated cluster substrate: channels, network routing,
// node loops, and the wire cost model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "cluster/network.h"
#include "cluster/node.h"
#include "util/buffer.h"

namespace pfm {
namespace {

TEST(Channel, FifoDelivery) {
  Channel ch;
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.v = i;
    ASSERT_TRUE(ch.send(std::move(m)));
  }
  for (int i = 0; i < 5; ++i) {
    auto m = ch.receive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->v, i);
  }
  EXPECT_EQ(ch.try_receive(), std::nullopt);
}

TEST(Channel, CloseUnblocksReceivers) {
  Channel ch;
  std::thread t([&] {
    auto m = ch.receive();
    EXPECT_FALSE(m.has_value());
  });
  ch.close();
  t.join();
  Message m;
  EXPECT_FALSE(ch.send(std::move(m)));  // sends after close are dropped
}

TEST(Channel, BackPressureBlocksSender) {
  Channel ch(2);
  Message a, b;
  ASSERT_TRUE(ch.send(std::move(a)));
  ASSERT_TRUE(ch.send(std::move(b)));
  std::atomic<bool> sent{false};
  std::thread t([&] {
    Message c;
    ch.send(std::move(c));
    sent.store(true);
  });
  // The third send must wait until we drain one message.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(sent.load());
  ASSERT_TRUE(ch.receive().has_value());
  t.join();
  EXPECT_TRUE(sent.load());
}

TEST(Channel, DrainsAfterClose) {
  Channel ch;
  Message m;
  m.v = 42;
  ASSERT_TRUE(ch.send(std::move(m)));
  ch.close();
  auto got = ch.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->v, 42);
  EXPECT_FALSE(ch.receive().has_value());
}

// Polls `flag` for up to 10 s; a wake-up the channel lost leaves it unset.
bool becomes_true(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A handoff notifies only a parked peer, after unlocking: each way of taking
// a message off a full channel must still wake the sender parked on it.
void expect_pop_wakes_parked_sender(
    const std::function<std::optional<Message>(Channel&)>& pop) {
  Channel ch(1);
  ASSERT_TRUE(ch.send(Message{}));
  std::atomic<bool> sent{false};
  std::thread sender([&] {
    Message m;
    m.v = 7;
    EXPECT_TRUE(ch.send(std::move(m)));
    sent = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
  EXPECT_FALSE(sent.load());
  EXPECT_TRUE(pop(ch).has_value());
  EXPECT_TRUE(becomes_true(sent)) << "the parked sender was never woken";
  ch.close();  // unblocks a sender that missed its wake-up, so join returns
  sender.join();
  auto m = ch.try_receive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->v, 7);
}

TEST(Channel, ReceiveWakesParkedSender) {
  expect_pop_wakes_parked_sender([](Channel& ch) { return ch.receive(); });
}

TEST(Channel, ReceiveForWakesParkedSender) {
  expect_pop_wakes_parked_sender(
      [](Channel& ch) { return ch.receive_for(std::chrono::seconds(1)); });
}

TEST(Channel, TryReceiveWakesParkedSender) {
  expect_pop_wakes_parked_sender([](Channel& ch) { return ch.try_receive(); });
}

TEST(Channel, SendWakesParkedReceiver) {
  Channel ch;
  std::atomic<bool> received{false};
  std::thread receiver([&] {
    auto m = ch.receive();
    EXPECT_TRUE(m.has_value());
    received = m.has_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
  EXPECT_TRUE(ch.send(Message{}));
  EXPECT_TRUE(becomes_true(received)) << "the parked receiver was never woken";
  ch.close();
  receiver.join();
}

TEST(Channel, SendWakesTimedReceiverBeforeItsDeadline) {
  // A lost wake-up would still deliver the message, but only when the 10 s
  // deadline expires; the wake must come with the send.
  Channel ch;
  std::chrono::steady_clock::duration waited{};
  std::thread receiver([&] {
    const auto start = std::chrono::steady_clock::now();
    auto m = ch.receive_for(std::chrono::seconds(10));
    waited = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(m.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
  EXPECT_TRUE(ch.send(Message{}));
  receiver.join();
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(Channel, ManySendersOneReceiverLoseNothing) {
  // A small capacity keeps senders parking on a full channel and the
  // receiver parking on an empty one, so both wake paths run thousands of
  // times. A lost wake-up stalls the handoff until receive_for's deadline.
  constexpr int kSenders = 4;
  constexpr int kPerSender = 5000;
  Channel ch(2);
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s)
    senders.emplace_back([&ch, s] {
      for (int i = 0; i < kPerSender; ++i) {
        Message m;
        m.src_node = s;
        m.v = i;
        ASSERT_TRUE(ch.send(std::move(m)));
      }
    });
  std::vector<int> next(kSenders, 0);
  int stalls = 0;
  for (int n = 0; n < kSenders * kPerSender; ++n) {
    const auto start = std::chrono::steady_clock::now();
    auto m = ch.receive_for(std::chrono::seconds(10));
    if (!m.has_value() ||
        std::chrono::steady_clock::now() - start > std::chrono::seconds(5)) {
      ++stalls;
      if (!m.has_value()) break;
    }
    ASSERT_GE(m->src_node, 0);
    ASSERT_LT(m->src_node, kSenders);
    EXPECT_EQ(m->v, next[static_cast<std::size_t>(m->src_node)]++);  // FIFO
  }
  ch.close();  // a sender stuck on a lost wake-up leaves with false
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(stalls, 0);
  for (int s = 0; s < kSenders; ++s)
    EXPECT_EQ(next[static_cast<std::size_t>(s)], kPerSender);
  EXPECT_EQ(ch.try_receive(), std::nullopt);
}

TEST(Network, RoutesToDestinationInbox) {
  Network net(3);
  Message m;
  m.kind = MsgKind::kWrite;
  m.dst_node = 2;
  ASSERT_TRUE(net.send(0, std::move(m)));
  auto got = net.inbox(2).try_receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src_node, 0);
  EXPECT_EQ(got->kind, MsgKind::kWrite);
  EXPECT_EQ(net.inbox(1).try_receive(), std::nullopt);
  Message bad;
  bad.dst_node = 7;
  EXPECT_THROW(net.send(0, std::move(bad)), std::out_of_range);
}

TEST(Network, WireModelAccountsLatencyAndBandwidth) {
  NetParams p{10.0, 100.0};  // 10 us + bytes/100 us
  EXPECT_DOUBLE_EQ(p.wire_time_us(0), 10.0);
  EXPECT_DOUBLE_EQ(p.wire_time_us(1000), 20.0);

  Network net(2, p);
  Message m;
  m.dst_node = 1;
  m.payload.resize(936);  // wire_bytes = 64 + 936 = 1000
  net.send(0, std::move(m));
  EXPECT_EQ(net.messages_sent(), 1);
  EXPECT_EQ(net.bytes_sent(), 1000);
  EXPECT_NEAR(net.simulated_wire_us(), 20.0, 0.1);
  net.reset_accounting();
  EXPECT_EQ(net.messages_sent(), 0);
}

TEST(NodeLoop, HandlesMessagesUntilShutdown) {
  Network net(2);
  std::atomic<int> handled{0};
  NodeLoop loop(net, 1, [&](Message&&) { handled.fetch_add(1); });
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.kind = MsgKind::kAck;
    m.dst_node = 1;
    net.send(0, std::move(m));
  }
  loop.stop();
  EXPECT_EQ(handled.load(), 3);
}

TEST(NodeLoop, StopIsIdempotent) {
  Network net(1);
  NodeLoop loop(net, 0, [](Message&&) {});
  loop.stop();
  loop.stop();  // must not hang or crash
}

TEST(Message, CopiesSharePayloadUntilOneWrites) {
  Message a;
  a.payload = make_pattern_buffer(64, 3);
  const Message b = a;
  EXPECT_EQ(b.payload.data(), a.payload.data());  // shared, not copied
  a.payload.mutable_bytes()[0] ^= std::byte{0xFF};
  EXPECT_NE(b.payload.data(), a.payload.data());
  EXPECT_TRUE(equal_bytes(b.payload, make_pattern_buffer(64, 3)));
  EXPECT_EQ(a.payload[0], b.payload[0] ^ std::byte{0xFF});
  EXPECT_FALSE(a.payload == b.payload);

  // An unshared payload is written in place.
  const std::byte* own = a.payload.data();
  a.payload.mutable_bytes()[1] ^= std::byte{0xFF};
  EXPECT_EQ(a.payload.data(), own);
}

TEST(MsgKind, Names) {
  EXPECT_STREQ(to_string(MsgKind::kWrite), "WRITE");
  EXPECT_STREQ(to_string(MsgKind::kShutdown), "SHUTDOWN");
}

}  // namespace
}  // namespace pfm
