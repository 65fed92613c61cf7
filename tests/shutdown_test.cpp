// Shutdown-ordering regressions in the cluster substrate: destroying a
// Channel or Network with senders/receivers still blocked inside it, and
// concurrent NodeLoop::stop calls. Under TSan (tsan preset) these tests are
// the witnesses for the close/send race fix in Channel::~Channel.
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/channel.h"
#include "cluster/network.h"
#include "cluster/node.h"

namespace pfm {
namespace {

Message make_msg(int dst) {
  Message m;
  m.kind = MsgKind::kAck;
  m.dst_node = dst;
  return m;
}

/// Polls `parked` until it reports `want` threads blocked inside a channel.
/// False after a deadline, so a thread that never parks fails its test
/// instead of hanging it.
bool await_parked(const std::function<std::size_t()>& parked,
                  std::size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (parked() != want) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(Shutdown, DestroyChannelWithBlockedSender) {
  // Capacity-1 channel, one message already queued: the second send blocks
  // on not_full_. Destroying the channel used to free the mutex and
  // condition variable under the blocked sender; now the destructor closes,
  // wakes, and drains it first.
  auto ch = std::make_unique<Channel>(1);
  ASSERT_TRUE(ch->send(make_msg(0)));
  std::atomic<bool> send_result{true};
  // The thread gets a raw pointer: reading through the unique_ptr while the
  // main thread resets it would be a (test-side) race on the pointer itself.
  Channel* raw = ch.get();
  std::thread sender([&, raw] { send_result = raw->send(make_msg(0)); });
  // Destroy only once the sender is parked inside send: a sender that has
  // not entered send yet would call into the freed channel. If it never
  // parks, closing (not destroying) still unblocks it for the join.
  const bool parked =
      await_parked([raw] { return raw->parked_senders(); }, 1);
  EXPECT_TRUE(parked) << "the sender never parked";
  if (parked)
    ch.reset();  // close + drain + destroy
  else
    ch->close();
  sender.join();
  EXPECT_FALSE(send_result.load());  // the blocked message was dropped
}

TEST(Shutdown, DestroyChannelWithBlockedReceiver) {
  auto ch = std::make_unique<Channel>(4);
  std::atomic<bool> got_message{true};
  Channel* raw = ch.get();
  std::thread receiver([&, raw] { got_message = raw->receive().has_value(); });
  const bool parked =
      await_parked([raw] { return raw->parked_receivers(); }, 1);
  EXPECT_TRUE(parked) << "the receiver never parked";
  if (parked)
    ch.reset();
  else
    ch->close();
  receiver.join();
  EXPECT_FALSE(got_message.load());
}

TEST(Shutdown, CloseThenDestroyUnblocksManySenders) {
  auto ch = std::make_unique<Channel>(1);
  ASSERT_TRUE(ch->send(make_msg(0)));
  std::vector<std::thread> senders;
  std::atomic<int> delivered{0};
  Channel* raw = ch.get();
  for (int i = 0; i < 8; ++i)
    senders.emplace_back([&, raw] {
      if (raw->send(make_msg(0))) ++delivered;
    });
  const bool parked =
      await_parked([raw] { return raw->parked_senders(); }, 8);
  EXPECT_TRUE(parked) << raw->parked_senders() << " of 8 senders parked";
  ch->close();  // explicit close first, destructor right behind it
  if (parked) ch.reset();
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(delivered.load(), 0);
}

// A handoff notifies its parked peer after unlocking, so the peer can take
// the message and destroy the channel while the notifier is still inside
// its notify. The destructor must wait that notify out; TSan reports the
// destroy-vs-notify race if it does not.
constexpr int kHandoffRounds = 2000;

TEST(Shutdown, DestroyChannelRightAfterReceivingAHandoff) {
  for (int round = 0; round < kHandoffRounds; ++round) {
    auto ch = std::make_unique<Channel>(1);
    Channel* raw = ch.get();
    // Short timed waits park the receiver, and a timeout can take the
    // message before the sender's notify has run.
    std::thread sender([raw] { EXPECT_TRUE(raw->send(make_msg(0))); });
    std::optional<Message> got;
    while (!got) got = ch->receive_for(std::chrono::microseconds(50));
    ch.reset();  // the sender may be between its unlock and its notify
    sender.join();
  }
}

TEST(Shutdown, DestroyChannelRightAfterAParkedSendCompletes) {
  for (int round = 0; round < kHandoffRounds; ++round) {
    auto ch = std::make_unique<Channel>(1);
    ASSERT_TRUE(ch->send(make_msg(0)));  // full: the next send parks
    Channel* raw = ch.get();
    std::thread receiver([raw] {
      while (!raw->try_receive()) std::this_thread::yield();
    });
    EXPECT_TRUE(ch->send(make_msg(0)));  // woken by the receiver's pop
    ch.reset();  // the receiver may still be inside its notify
    receiver.join();
  }
}

TEST(Shutdown, ReceiveDrainsQueuedMessagesAfterClose) {
  Channel ch(8);
  ASSERT_TRUE(ch.send(make_msg(0)));
  ASSERT_TRUE(ch.send(make_msg(0)));
  ch.close();
  EXPECT_TRUE(ch.receive().has_value());
  EXPECT_TRUE(ch.receive().has_value());
  EXPECT_FALSE(ch.receive().has_value());  // closed and drained
}

TEST(Shutdown, NetworkDestructionWithInFlightSenders) {
  // Clients hammer a network that is torn down mid-flight; sends must
  // either deliver or report false, never crash or race the teardown.
  auto net = std::make_unique<Network>(2);
  std::atomic<bool> stop{false};
  std::thread pusher([&] {
    while (!stop) {
      if (!net->send(0, make_msg(1))) break;
      net->inbox(1).try_receive();  // keep the inbox from filling up
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net->close_all();
  stop = true;
  pusher.join();
  net.reset();
}

TEST(Shutdown, ConcurrentNodeLoopStops) {
  Network net(1);
  std::atomic<int> handled{0};
  NodeLoop loop(net, 0, [&](Message&&) { ++handled; });
  ASSERT_TRUE(net.send(0, make_msg(0)));
  std::thread a([&] { loop.stop(); });
  std::thread b([&] { loop.stop(); });
  loop.stop();
  a.join();
  b.join();
  EXPECT_EQ(handled.load(), 1);
}

TEST(Shutdown, StopAfterNetworkCloseDoesNotHang) {
  Network net(1);
  NodeLoop loop(net, 0, [](Message&&) {});
  net.close_all();  // loop exits via closed inbox
  loop.stop();      // shutdown message is dropped; join must still return
}

}  // namespace
}  // namespace pfm
