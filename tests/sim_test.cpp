#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/node.h"
#include "sim/scheduler.h"

namespace gsalert::sim {
namespace {

// ---------- Scheduler -------------------------------------------------------

TEST(SchedulerTest, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_after(SimTime::millis(20), [&] { order.push_back(2); });
  s.schedule_after(SimTime::millis(10), [&] { order.push_back(1); });
  s.schedule_after(SimTime::millis(30), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::millis(30));
}

TEST(SchedulerTest, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_after(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, NestedScheduling) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(SimTime::millis(1), [&] {
    s.schedule_after(SimTime::millis(1), [&] { fired = 1; });
  });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), SimTime::millis(2));
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler s;
  int count = 0;
  s.schedule_after(SimTime::millis(5), [&] { ++count; });
  s.schedule_after(SimTime::millis(15), [&] { ++count; });
  s.run_until(SimTime::millis(10));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), SimTime::millis(10));
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, RunLimitCountsEvents) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    s.schedule_after(SimTime::millis(i), [&] { ++count; });
  }
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending(), 7u);
}

TEST(SchedulerTest, NegativeDelayClampsToNow) {
  Scheduler s;
  bool ran = false;
  s.schedule_after(SimTime::millis(-5), [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), SimTime::zero());
}

TEST(SchedulerTest, RunUntilAdvancesClockOnEmptyQueue) {
  // A deadline is a statement about time, not pending work, so run_until
  // advances the clock even when there is nothing (left) to run — the
  // contract slice-by-slice run loops rely on to terminate.
  Scheduler s;
  s.run_until(SimTime::millis(40));
  EXPECT_EQ(s.now(), SimTime::millis(40));

  int count = 0;
  s.schedule_after(SimTime::millis(1), [&] { ++count; });
  s.run_until(SimTime::millis(100));  // drains at t=41, clock reaches 100
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), SimTime::millis(100));
}

TEST(SchedulerTest, StatsCountScheduledExecutedAndSpills) {
  Scheduler s;
  // Small capture: stays inline.
  int x = 0;
  s.schedule_after(SimTime::millis(1), [&x] { ++x; });
  // Oversized capture: must spill to the heap and be counted.
  std::array<char, 256> big{};
  s.schedule_after(SimTime::millis(2), [big, &x] { x += big[0]; });
  s.run();
  EXPECT_EQ(s.stats().scheduled, 2u);
  EXPECT_EQ(s.stats().executed, 2u);
  EXPECT_EQ(s.stats().heap_spills, 1u);
}

TEST(SmallActionTest, InlineCaptureDoesNotSpill) {
  int hits = 0;
  SmallAction a{[&hits] { ++hits; }};
  EXPECT_FALSE(a.on_heap());
  a();
  EXPECT_EQ(hits, 1);
}

TEST(SmallActionTest, OversizedCaptureSpillsAndStillRuns) {
  std::array<std::uint64_t, 32> payload{};
  payload[31] = 7;
  std::uint64_t got = 0;
  SmallAction a{[payload, &got] { got = payload[31]; }};
  EXPECT_TRUE(a.on_heap());
  a();
  EXPECT_EQ(got, 7u);
}

TEST(SmallActionTest, MoveTransfersOwnership) {
  // Move-only payloads (the whole point vs std::function) must compile
  // and survive relocation through the heap's vector.
  auto payload = std::make_unique<int>(41);
  int got = 0;
  SmallAction a{[p = std::move(payload), &got] { got = *p + 1; }};
  SmallAction b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  SmallAction c;
  c = std::move(b);
  c();
  EXPECT_EQ(got, 42);
}

TEST(SmallActionTest, SchedulerAcceptsMoveOnlyLambdas) {
  Scheduler s;
  auto token = std::make_unique<std::string>("done");
  std::string got;
  s.schedule_after(SimTime::millis(1),
                   [t = std::move(token), &got] { got = *t; });
  s.run();
  EXPECT_EQ(got, "done");
}

// ---------- Network ----------------------------------------------------------

/// Test node: records received payload sizes and senders; can echo.
class Recorder : public Node {
 public:
  void on_packet(NodeId from, const Packet& packet) override {
    senders.push_back(from);
    sizes.push_back(packet.size());
    receive_times.push_back(network().now());
  }
  void on_restart() override { ++restarts; }

  std::vector<NodeId> senders;
  std::vector<std::size_t> sizes;
  std::vector<SimTime> receive_times;
  int restarts = 0;
};

Packet make_packet(std::size_t n) {
  return Packet{std::vector<std::byte>(n, std::byte{0xAB})};
}

TEST(NetworkTest, DeliversWithLatency) {
  Network net{1};
  net.set_default_path({.latency = SimTime::millis(7)});
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  EXPECT_TRUE(net.send(a->id(), b->id(), make_packet(10)));
  net.run();
  ASSERT_EQ(b->senders.size(), 1u);
  EXPECT_EQ(b->senders[0], a->id());
  EXPECT_EQ(b->sizes[0], 10u);
  EXPECT_EQ(b->receive_times[0], SimTime::millis(7));
}

TEST(NetworkTest, FindNodeByName) {
  Network net;
  auto* a = net.make_node<Recorder>("alpha");
  EXPECT_EQ(net.find_node("alpha"), a->id());
  EXPECT_FALSE(net.find_node("missing").valid());
}

TEST(NetworkTest, DuplicateNameThrows) {
  Network net;
  net.make_node<Recorder>("x");
  EXPECT_THROW(net.make_node<Recorder>("x"), std::invalid_argument);
}

TEST(NetworkTest, CrashedNodeDoesNotReceive) {
  Network net;
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  net.crash(b->id());
  EXPECT_FALSE(net.send(a->id(), b->id(), make_packet(4)));
  net.run();
  EXPECT_TRUE(b->senders.empty());
  EXPECT_EQ(net.stats().dropped_down, 1u);
}

TEST(NetworkTest, CrashedNodeCannotSend) {
  Network net;
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  net.crash(a->id());
  EXPECT_FALSE(net.send(a->id(), b->id(), make_packet(4)));
  net.run();
  EXPECT_TRUE(b->senders.empty());
  EXPECT_EQ(net.stats().sent, 0u);
}

TEST(NetworkTest, InFlightPacketDroppedOnCrash) {
  Network net;
  net.set_default_path({.latency = SimTime::millis(10)});
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  net.send(a->id(), b->id(), make_packet(4));
  net.run_until(SimTime::millis(5));
  net.crash(b->id());
  net.run();
  EXPECT_TRUE(b->senders.empty());
  EXPECT_EQ(net.stats().dropped_down, 1u);
}

TEST(NetworkTest, RestartInvokesHook) {
  Network net;
  auto* a = net.make_node<Recorder>("a");
  net.start();
  net.crash(a->id());
  net.restart(a->id());
  net.run();
  EXPECT_EQ(a->restarts, 1);
  // Restarting an up node is a no-op.
  net.restart(a->id());
  net.run();
  EXPECT_EQ(a->restarts, 1);
}

TEST(NetworkTest, BlockedPairDrops) {
  Network net;
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  net.block_pair(a->id(), b->id());
  EXPECT_FALSE(net.send(a->id(), b->id(), make_packet(4)));
  EXPECT_FALSE(net.send(b->id(), a->id(), make_packet(4)));  // symmetric
  net.unblock_pair(a->id(), b->id());
  EXPECT_TRUE(net.send(a->id(), b->id(), make_packet(4)));
  net.run();
  ASSERT_EQ(b->senders.size(), 1u);
}

TEST(NetworkTest, PartitionSeparatesGroups) {
  Network net;
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  auto* c = net.make_node<Recorder>("c");
  net.start();
  net.set_partition({{a->id(), b->id()}, {c->id()}});
  EXPECT_TRUE(net.send(a->id(), b->id(), make_packet(1)));
  EXPECT_FALSE(net.send(a->id(), c->id(), make_packet(1)));
  net.clear_partition();
  EXPECT_TRUE(net.send(a->id(), c->id(), make_packet(1)));
  net.run();
  EXPECT_EQ(b->senders.size(), 1u);
  EXPECT_EQ(c->senders.size(), 1u);
}

TEST(NetworkTest, PartitionFormingMidFlightDropsPacket) {
  Network net;
  net.set_default_path({.latency = SimTime::millis(10)});
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  net.send(a->id(), b->id(), make_packet(1));
  net.run_until(SimTime::millis(1));
  net.set_partition({{a->id()}, {b->id()}});
  net.run();
  EXPECT_TRUE(b->senders.empty());
}

TEST(NetworkTest, LossDropsApproximatelyAtRate) {
  Network net{77};
  net.set_default_path({.latency = SimTime::millis(1), .loss = 0.5});
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  const int n = 2000;
  for (int i = 0; i < n; ++i) net.send(a->id(), b->id(), make_packet(1));
  net.run();
  EXPECT_GT(b->senders.size(), 800u);
  EXPECT_LT(b->senders.size(), 1200u);
  EXPECT_EQ(net.stats().dropped_loss + net.stats().delivered,
            static_cast<std::uint64_t>(n));
}

TEST(NetworkTest, PathOverrideApplies) {
  Network net;
  net.set_default_path({.latency = SimTime::millis(100)});
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.set_path(a->id(), b->id(), {.latency = SimTime::millis(2)});
  net.start();
  net.send(a->id(), b->id(), make_packet(1));
  net.run();
  ASSERT_EQ(b->receive_times.size(), 1u);
  EXPECT_EQ(b->receive_times[0], SimTime::millis(2));
}

TEST(NetworkTest, JitterStaysWithinBound) {
  Network net{5};
  net.set_default_path(
      {.latency = SimTime::millis(10), .jitter = SimTime::millis(5)});
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  for (int i = 0; i < 100; ++i) net.send(a->id(), b->id(), make_packet(1));
  net.run();
  SimTime prev = SimTime::zero();
  for (SimTime t : b->receive_times) {
    EXPECT_GE(t, SimTime::millis(10));
    EXPECT_LE(t, SimTime::millis(15));
    EXPECT_GE(t, prev);  // scheduler delivers in time order
    prev = t;
  }
}

TEST(NetworkTest, TimersFireUnlessCrashed) {
  Network net;
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  std::vector<int> fired;
  net.set_timer(a->id(), SimTime::millis(5), [&] { fired.push_back(11); });
  net.set_timer(b->id(), SimTime::millis(5), [&] { fired.push_back(22); });
  net.crash(b->id());
  net.run();
  EXPECT_EQ(fired, (std::vector<int>{11}));

  // A timer dies with the incarnation that set it: b is back up when its
  // pre-crash timer falls due, yet only the timer set after the restart
  // fires.
  net.restart(b->id());
  net.run();
  fired.clear();
  net.set_timer(b->id(), SimTime::millis(10), [&] { fired.push_back(33); });
  net.run_until(net.now() + SimTime::millis(2));
  net.crash(b->id());
  net.restart(b->id());
  net.set_timer(b->id(), SimTime::millis(10), [&] { fired.push_back(44); });
  net.run();
  EXPECT_EQ(fired, (std::vector<int>{44}));
  EXPECT_EQ(b->restarts, 2);
}

TEST(NetworkTest, StatsCountBytes) {
  Network net;
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  net.send(a->id(), b->id(), make_packet(100));
  net.run();
  EXPECT_EQ(net.stats().bytes_sent, 100u);
  EXPECT_EQ(net.node_stats(a->id()).bytes_sent, 100u);
  EXPECT_EQ(net.node_stats(b->id()).bytes_received, 100u);
  net.reset_stats();
  EXPECT_EQ(net.stats().bytes_sent, 0u);
  EXPECT_EQ(net.node_stats(a->id()).sent, 0u);
}

TEST(NetworkTest, CopySplitCountsHeaderVsBody) {
  Network net;
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<Recorder>("b");
  net.start();
  Packet packet;
  packet.header = std::vector<std::byte>(10, std::byte{0x01});
  packet.body = wire::Frame{std::vector<std::byte>(90, std::byte{0x02})};
  net.send(a->id(), b->id(), packet);
  net.run();
  EXPECT_EQ(net.stats().bytes_sent, 100u);
  EXPECT_EQ(net.stats().bytes_copied, 10u);   // header only
  EXPECT_EQ(net.stats().bytes_shared, 90u);   // body frame aliased
}

/// Records the body frame of every delivery, to prove chaos duplication
/// aliases (not copies) the shared body buffer.
class FrameRecorder : public Node {
 public:
  void on_packet(NodeId, const Packet& packet) override {
    bodies.push_back(packet.body);
  }
  std::vector<wire::Frame> bodies;
};

TEST(NetworkTest, ChaosDuplicationSharesImmutableBodyFrame) {
  Network net{11};
  net.set_default_path({.latency = SimTime::millis(2)});
  net.chaos().duplication = 1.0;  // every send is duplicated
  net.chaos().reorder = 1.0;      // and the copies reorder freely
  net.chaos().reorder_span = SimTime::millis(5);
  auto* a = net.make_node<Recorder>("a");
  auto* b = net.make_node<FrameRecorder>("b");
  net.start();
  const std::vector<std::byte> original(64, std::byte{0x7C});
  Packet packet;
  packet.header = std::vector<std::byte>(8, std::byte{0x11});
  packet.body = wire::Frame{std::vector<std::byte>(original)};
  const std::byte* buffer = packet.body.data();
  net.send(a->id(), b->id(), packet);
  net.run();
  ASSERT_EQ(b->bodies.size(), 2u);  // original + chaos duplicate
  for (const wire::Frame& body : b->bodies) {
    // Same underlying buffer (refcounted, zero-copy) and unchanged bytes:
    // duplication and reordering can never mutate a shared frame. ASan
    // (GSALERT_SANITIZE) guards the lifetime half of the claim.
    EXPECT_EQ(body.data(), buffer);
    EXPECT_TRUE(std::equal(original.begin(), original.end(), body.data()));
  }
  // Both transmissions counted: headers copied, bodies shared.
  EXPECT_EQ(net.stats().bytes_copied, 16u);
  EXPECT_EQ(net.stats().bytes_shared, 128u);
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Network net{seed};
    net.set_default_path({.latency = SimTime::millis(3),
                          .jitter = SimTime::millis(4),
                          .loss = 0.2});
    auto* a = net.make_node<Recorder>("a");
    auto* b = net.make_node<Recorder>("b");
    net.start();
    for (int i = 0; i < 200; ++i) net.send(a->id(), b->id(), make_packet(1));
    net.run();
    std::vector<std::int64_t> times;
    for (SimTime t : b->receive_times) times.push_back(t.as_micros());
    return times;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

}  // namespace
}  // namespace gsalert::sim
