#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "journal/journal.h"
#include "sim/network.h"
#include "sim/node.h"
#include "transport/channel.h"
#include "transport/dedup_window.h"
#include "transport/endpoint.h"
#include "transport/parking.h"
#include "transport/policy.h"
#include "wire/envelope.h"

namespace gsalert::transport {
namespace {

// ---------- Harness nodes ---------------------------------------------------

// Drives one Endpoint; replies are matched by msg_id echo.
class RequesterNode : public sim::Node {
 public:
  void request(std::uint64_t key, NodeId to, RetryPolicy policy) {
    ensure();
    endpoint_.request(key,
                      wire::make_envelope(wire::MessageType::kGsCollRequest,
                                          name(), "", key, wire::Writer{}),
                      {.policy = policy, .to = to},
                      [this](const wire::Envelope* reply) {
                        callbacks_ += 1;
                        if (reply == nullptr) timeout_callbacks_ += 1;
                      });
  }

  void on_packet(NodeId /*from*/, const sim::Packet& packet) override {
    auto decoded = wire::unpack(packet);
    if (!decoded.ok()) return;
    (void)endpoint_.complete(decoded.value().msg_id, decoded.value());
  }

  Endpoint& endpoint() { return endpoint_; }
  int callbacks() const { return callbacks_; }
  int timeout_callbacks() const { return timeout_callbacks_; }

 private:
  void ensure() {
    if (!endpoint_.attached()) {
      endpoint_.attach(&network(), id(), name(), 0x7E57ULL ^ id().value());
    }
  }

  Endpoint endpoint_;
  int callbacks_ = 0;
  int timeout_callbacks_ = 0;
};

// Replies to every request `replies` times (duplicate replies model a
// duplicated network path).
class EchoNode : public sim::Node {
 public:
  explicit EchoNode(int replies = 1) : replies_(replies) {}
  void on_packet(NodeId from, const sim::Packet& packet) override {
    auto decoded = wire::unpack(packet);
    if (!decoded.ok()) return;
    for (int i = 0; i < replies_; ++i) {
      network().send(id(), from,
                     wire::make_envelope(wire::MessageType::kGsCollResponse,
                                         name(), decoded.value().src,
                                         decoded.value().msg_id, wire::Writer{})
                         .pack());
    }
  }

 private:
  int replies_;
};

// Absorbs everything: requests sent here time out, channel data sent here
// is never acked.
class SinkNode : public sim::Node {
 public:
  void on_packet(NodeId, const sim::Packet&) override {}
};

// Owns a ChannelSet talking to a single peer over the simulated network.
class ChannelNode : public sim::Node {
 public:
  explicit ChannelNode(std::uint64_t jitter_seed = 1)
      : jitter_seed_(jitter_seed) {}

  void set_peer(NodeId peer) { peer_id_ = peer; }

  std::uint64_t send_data(const std::string& peer) {
    ensure();
    return channels_.send(
        peer, wire::make_envelope(wire::MessageType::kEventForward, name(),
                                  peer, 0, wire::Writer{}));
  }

  /// Re-inject the last stamped envelope (a network-level duplicate).
  void replay_last() { network().send(id(), peer_id_, last_sent_.pack()); }

  /// Lose every transmission of `seq` (0: lose nothing).
  void drop_seq(std::uint64_t seq) { drop_seq_ = seq; }

  /// Crash-restart the channel set onto its durable state: floors and
  /// unacked sends come back from a snapshot, the reorder buffer is lost.
  void restart() {
    wire::Writer image;
    channels_.snapshot(journal::RecordSink{image});
    channels_.clear_peers();
    const std::vector<std::byte> bytes = std::move(image).take();
    ASSERT_TRUE(journal::scan_entries(
        bytes, [&](std::uint8_t type, std::span<const std::byte> payload) {
          wire::Reader r{payload};
          EXPECT_TRUE(channels_.replay(type, r));
        }));
    channels_.on_restart();
  }

  void on_packet(NodeId from, const sim::Packet& packet) override {
    auto decoded = wire::unpack(packet);
    if (!decoded.ok()) return;
    const wire::Envelope& env = decoded.value();
    if (env.type == wire::MessageType::kEventForwardAck) {
      (void)channels_.on_ack(env.src, env.msg_id);
      return;
    }
    ensure();
    // Ack only what the channel reports delivered, as the alerting
    // service does.
    auto incoming = channels_.on_data(env);
    if (incoming.duplicate) ack(from, env);
    for (const wire::Envelope& d : incoming.deliver) {
      ack(from, d);
      delivered_.push_back(d.msg_id);
    }
  }

  ChannelSet& channels() { return channels_; }
  const std::vector<std::uint64_t>& delivered() const { return delivered_; }
  const std::vector<std::int64_t>& retransmit_times() const {
    return retransmit_times_;
  }

 private:
  void ack(NodeId to, const wire::Envelope& data) {
    network().send(id(), to,
                   wire::make_envelope(wire::MessageType::kEventForwardAck,
                                       name(), data.src, data.msg_id,
                                       wire::Writer{})
                       .pack());
  }

  void ensure() {
    if (channels_.attached()) return;
    // Record types for restart()'s snapshot; no live log.
    channels_.set_journal(nullptr, 1, 4);
    channels_.attach(&network(), id(), name(),
                     [this](const std::string&, const wire::Envelope& env) {
                       last_sent_ = env;
                       // A seq sent before is going out again.
                       if (!sent_.insert(env.msg_id).second) {
                         retransmit_times_.push_back(
                             network().now().as_micros());
                       }
                       if (env.msg_id == drop_seq_) return;
                       network().send(id(), peer_id_, env.pack());
                     },
                     jitter_seed_);
  }

  std::uint64_t jitter_seed_;
  std::uint64_t drop_seq_ = 0;
  NodeId peer_id_{};
  ChannelSet channels_;
  wire::Envelope last_sent_;
  std::vector<std::uint64_t> delivered_;
  std::set<std::uint64_t> sent_;
  std::vector<std::int64_t> retransmit_times_;
};

wire::Envelope parked_env(std::uint64_t msg_id) {
  return wire::make_envelope(wire::MessageType::kGdsRelay, "src", "dst",
                             msg_id, wire::Writer{});
}

// ---------- Endpoint --------------------------------------------------------

TEST(EndpointTest, TimeoutFiresExactlyOnce) {
  sim::Network net(7);
  auto* req = net.make_node<RequesterNode>("req");
  auto* sink = net.make_node<SinkNode>("sink");
  net.start();

  req->request(1, sink->id(),
               RetryPolicy{.deadline = SimTime::seconds(5),
                           .initial_rto = SimTime::seconds(1),
                           .backoff = 2.0,
                           .max_rto = SimTime::seconds(4),
                           .jitter = 0.0,
                           .max_retransmits = 8});
  net.run_until(SimTime::seconds(30));

  EXPECT_EQ(req->callbacks(), 1);
  EXPECT_EQ(req->timeout_callbacks(), 1);
  EXPECT_EQ(req->endpoint().stats().timeouts, 1u);
  // Attempts at 0s, 1s, 3s; the next (7s) falls past the 5s deadline.
  EXPECT_EQ(req->endpoint().stats().retransmits, 2u);
  EXPECT_EQ(req->endpoint().pending_count(), 0u);

  // A reply arriving after the deadline is a late reply, not a second
  // callback.
  const wire::Envelope late = wire::make_envelope(
      wire::MessageType::kGsCollResponse, "sink", "req", 1, wire::Writer{});
  EXPECT_FALSE(req->endpoint().complete(1, late));
  EXPECT_EQ(req->endpoint().stats().late_replies, 1u);
  EXPECT_EQ(req->callbacks(), 1);
}

TEST(EndpointTest, DuplicateReplyDeliveredOnce) {
  sim::Network net(7);
  auto* req = net.make_node<RequesterNode>("req");
  auto* echo = net.make_node<EchoNode>("echo", 2);  // replies twice
  net.start();

  req->request(9, echo->id(), RetryPolicy{});
  net.run_until(SimTime::seconds(10));

  EXPECT_EQ(req->callbacks(), 1);
  EXPECT_EQ(req->timeout_callbacks(), 0);
  EXPECT_EQ(req->endpoint().stats().replies, 1u);
  EXPECT_EQ(req->endpoint().stats().late_replies, 1u);
  EXPECT_EQ(req->endpoint().stats().retransmits, 0u);
  EXPECT_EQ(req->endpoint().stats().timeouts, 0u);
}

TEST(EndpointTest, RetransmitDeliversAfterHeal) {
  sim::Network net(7);
  auto* req = net.make_node<RequesterNode>("req");
  auto* echo = net.make_node<EchoNode>("echo");
  net.start();

  net.block_pair(req->id(), echo->id());
  req->request(3, echo->id(), RetryPolicy{});
  net.run_until(SimTime::millis(1500));
  net.unblock_pair(req->id(), echo->id());
  net.run_until(SimTime::seconds(10));

  EXPECT_EQ(req->callbacks(), 1);
  EXPECT_EQ(req->timeout_callbacks(), 0);
  EXPECT_GE(req->endpoint().stats().retransmits, 1u);
  EXPECT_EQ(req->endpoint().stats().replies, 1u);
}

// ---------- Channel ---------------------------------------------------------

TEST(ChannelTest, DedupWindowDropsReplayedDataAndAcks) {
  sim::Network net(11);
  auto* a = net.make_node<ChannelNode>("a", 101);
  auto* b = net.make_node<ChannelNode>("b", 202);
  a->set_peer(b->id());
  b->set_peer(a->id());
  net.start();

  const std::uint64_t seq = a->send_data("b");
  net.run_until(SimTime::seconds(1));
  ASSERT_EQ(b->delivered().size(), 1u);
  EXPECT_EQ(a->channels().unacked_total(), 0u);
  EXPECT_EQ(a->channels().stats().acked, 1u);

  // A duplicated packet replays the identical stamped envelope: the
  // receiver drops it (and still acks, which the sender ignores).
  a->replay_last();
  net.run_until(SimTime::seconds(2));
  EXPECT_EQ(b->delivered().size(), 1u);
  EXPECT_EQ(b->channels().stats().dup_drops, 1u);
  EXPECT_EQ(b->channels().stats().delivered, 1u);

  // A replayed ack finds nothing unacked.
  EXPECT_FALSE(a->channels().on_ack("b", seq));
  EXPECT_EQ(a->channels().stats().acked, 1u);
}

TEST(ChannelTest, ReorderedDataDeliversInOrder) {
  ChannelSet rx;

  wire::Envelope second = wire::make_envelope(
      wire::MessageType::kEventForward, "peer", "", 2, wire::Writer{});
  second.chan_base = 1;
  auto held = rx.on_data(second);
  EXPECT_FALSE(held.duplicate);
  EXPECT_TRUE(held.deliver.empty());
  EXPECT_EQ(rx.stats().reorder_buffered, 1u);

  wire::Envelope first = wire::make_envelope(
      wire::MessageType::kEventForward, "peer", "", 1, wire::Writer{});
  first.chan_base = 1;
  auto plugged = rx.on_data(first);
  ASSERT_EQ(plugged.deliver.size(), 2u);
  EXPECT_EQ(plugged.deliver[0].msg_id, 1u);
  EXPECT_EQ(plugged.deliver[1].msg_id, 2u);
  EXPECT_EQ(rx.stats().delivered, 2u);

  // Replaying either now hits the dedup floor.
  auto replay = rx.on_data(first);
  EXPECT_TRUE(replay.duplicate);
  EXPECT_TRUE(replay.deliver.empty());
  EXPECT_EQ(rx.stats().dup_drops, 1u);
}

/// A bare receiving ChannelSet fed from peer "peer" with chan_base 1,
/// acking by the on_data contract.
struct Receiver {
  ChannelSet rx;
  std::vector<std::uint64_t> delivered;
  std::vector<std::uint64_t> acked;

  void feed(std::uint64_t seq) {
    wire::Envelope env = wire::make_envelope(
        wire::MessageType::kEventForward, "peer", "", seq, wire::Writer{});
    env.chan_base = 1;
    const ChannelSet::Incoming in = rx.on_data(env);
    if (in.duplicate) acked.push_back(seq);
    for (const wire::Envelope& d : in.deliver) {
      delivered.push_back(d.msg_id);
      acked.push_back(d.msg_id);
    }
  }
};

// A gap followed by more seqs than the reorder buffer holds: the arrival
// past the cap is refused unacked (the sender keeps it), so the floor
// never moves past the missing seq and every seq is delivered once, in
// order, with no ack before its delivery.
TEST(ChannelTest, OverflowRefusesInsteadOfSkippingTheGap) {
  Receiver r;
  const std::uint64_t last = ChannelSet::kReorderCap + 2;  // 66
  for (std::uint64_t seq = 2; seq <= last; ++seq) r.feed(seq);
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_TRUE(r.acked.empty()) << "a buffered seq was acked";
  EXPECT_EQ(r.rx.stats().reorder_buffered, ChannelSet::kReorderCap);
  EXPECT_EQ(r.rx.stats().reorder_overflows, 1u);

  r.feed(1);     // plugs the gap: 1..65 deliver
  r.feed(last);  // the sender's retransmit of the refused seq
  std::vector<std::uint64_t> all;
  for (std::uint64_t seq = 1; seq <= last; ++seq) all.push_back(seq);
  EXPECT_EQ(r.delivered, all);
  EXPECT_EQ(r.acked, all);
}

// The receiver buffers seq 3 while seq 2 is lost, sees 3 retransmitted,
// and then crashes. Nothing buffered was acked, so the sender still holds
// 3 and delivers it after the restart along with 2.
TEST(ChannelTest, BufferedSeqSurvivesReceiverCrash) {
  sim::Network net(13);
  auto* a = net.make_node<ChannelNode>("a", 101);
  auto* b = net.make_node<ChannelNode>("b", 202);
  a->set_peer(b->id());
  b->set_peer(a->id());
  net.start();

  a->drop_seq(2);
  for (int i = 0; i < 3; ++i) a->send_data("b");
  net.run_until(SimTime::seconds(3));  // 3 retransmitted, 2 still lost
  ASSERT_EQ(b->delivered(), (std::vector<std::uint64_t>{1}));
  ASSERT_GE(b->channels().stats().dup_drops, 1u);
  EXPECT_EQ(a->channels().unacked_total(), 2u);

  b->restart();
  a->drop_seq(0);
  net.run_until(SimTime::seconds(10));
  EXPECT_EQ(b->delivered(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(a->channels().unacked_total(), 0u);
}

TEST(ChannelTest, BackoffSchedulesDesynchronize) {
  // Two senders with the same policy but different jitter seeds retry an
  // unacked message against a silent peer: their retransmit schedules must
  // back off (growing, bounded gaps) yet not coincide — this is the
  // desynchronization the alerting retry path relies on after a heal.
  auto run_sender = [](std::uint64_t jitter_seed) {
    sim::Network net(5);
    auto* s = net.make_node<ChannelNode>("s", jitter_seed);
    auto* sink = net.make_node<SinkNode>("sink");
    s->set_peer(sink->id());
    net.start();
    s->send_data("sink");
    net.run_until(SimTime::seconds(8));
    return s->retransmit_times();
  };

  const auto one = run_sender(0xA11CE);
  const auto two = run_sender(0xB0B);
  ASSERT_GE(one.size(), 4u);
  ASSERT_GE(two.size(), 4u);
  EXPECT_NE(one, two);

  // Deterministic: same seed, same schedule (seed-replay debugging).
  EXPECT_EQ(one, run_sender(0xA11CE));

  // Gaps follow the policy: jittered downward from the backed-off rto,
  // never beyond max_rto (worst-case recovery latency stays bounded).
  const ChannelPolicy policy{};
  for (const auto& times : {one, two}) {
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < times.size(); ++i) {
      const std::int64_t gap = times[i] - prev;
      EXPECT_GT(gap, 0);
      EXPECT_LE(gap, policy.max_rto.as_micros());
      prev = times[i];
    }
  }
}

// ---------- DedupWindow -----------------------------------------------------

/// An exact reference: every seq a window accepted, per origin.
using Accepted = std::map<std::string, std::set<std::uint64_t>>;

/// Never-seen seqs at or below each origin's newest accepted one.
std::uint64_t reference_gaps(const Accepted& accepted) {
  std::uint64_t gaps = 0;
  for (const auto& [origin, seqs] : accepted) {
    gaps += *seqs.rbegin() - seqs.size();
  }
  return gaps;
}

// Seeded random arrivals from three origins against the exact reference.
// Phase 1 keeps every arrival within the window's width of its origin's
// newest seq (with forward jumps far past it), where decisions must match
// the reference exactly. Phase 2 also replays seqs far below the newest:
// the window may refuse a never-seen seq there, but never admits one
// twice, and its gap count stays the reference's never-seen count.
TEST(DedupWindowTest, MatchesExactSetWithinWidth) {
  constexpr std::uint64_t kWidth = DedupWindow::kWidth;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed};
    DedupWindow window;
    Accepted accepted;
    std::map<std::string, std::uint64_t> newest;
    std::uint64_t refused_unseen = 0;
    const auto arrive = [&](bool within) {
      std::string origin = "origin-";
      origin += std::to_string(rng.uniform_int(0, 2));
      std::uint64_t& top = newest[origin];
      std::uint64_t seq = 0;
      const double pick = rng.uniform();
      if (pick < 0.45) {
        seq = top + static_cast<std::uint64_t>(rng.uniform_int(1, 3));
      } else if (pick < 0.5) {
        seq = top + static_cast<std::uint64_t>(rng.uniform_int(60, 200));
      } else {
        const std::uint64_t reach = within ? kWidth - 1 : 4 * kWidth;
        const std::uint64_t back = static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(reach)));
        if (back >= top) return;
        seq = top - back;
      }
      std::set<std::uint64_t>& seen = accepted[origin];
      const bool unseen = !seen.contains(seq);
      const bool fresh = window.insert(origin, seq);
      // Within the width of the newest seq, the window is exact.
      if (seq + kWidth > top) {
        ASSERT_EQ(fresh, unseen) << "seed " << seed << " " << origin << "#"
                                 << seq;
      }
      ASSERT_FALSE(fresh && !unseen) << "accepted twice: " << origin << "#"
                                     << seq;
      if (fresh) seen.insert(seq);
      if (!fresh && unseen) refused_unseen += 1;
      top = std::max(top, seq);
      if (seen.empty()) accepted.erase(origin);
      EXPECT_EQ(window.gaps(), reference_gaps(accepted)) << "seed " << seed;
    };
    for (int i = 0; i < 3000; ++i) arrive(/*within=*/true);
    EXPECT_EQ(refused_unseen, 0u);
    for (int i = 0; i < 3000; ++i) arrive(/*within=*/false);
    EXPECT_GT(refused_unseen, 0u) << "phase 2 never reached past the width";
    EXPECT_EQ(window.origin_count(), accepted.size());
  }
}

/// A window's snapshot entries, each replayed unless `skip` says not.
DedupWindow restored(const DedupWindow& from,
                     const std::function<bool(std::uint8_t, wire::Reader)>&
                         skip = nullptr) {
  wire::Writer image;
  from.snapshot(journal::RecordSink{image});
  const std::vector<std::byte> bytes = std::move(image).take();
  DedupWindow to{1, 2};
  EXPECT_TRUE(journal::scan_entries(
      bytes, [&](std::uint8_t type, std::span<const std::byte> payload) {
        if (skip && skip(type, wire::Reader{payload})) return;
        wire::Reader r{payload};
        EXPECT_TRUE(to.replay(type, r));
      }));
  return to;
}

// covers(): a window lacking one seq above its floor, or with a lower
// floor, does not cover one that has it, and the check names the first
// missing (origin, seq). A forced floor move covers the seqs it passed.
TEST(DedupWindowTest, CoversNamesTheFirstMissingSeq) {
  DedupWindow full{1, 2};
  for (std::uint64_t seq = 1; seq <= 10; ++seq) full.insert("a", seq);
  for (const std::uint64_t seq : {1, 3, 5}) full.insert("b", seq);
  DedupWindow::Missing missing;
  EXPECT_TRUE(full.covers(full));
  const DedupWindow copy = restored(full);
  EXPECT_TRUE(copy.covers(full));
  EXPECT_TRUE(full.covers(copy));

  // One seq above the floor lost: b#5, whose seen record the restore
  // dropped.
  const DedupWindow holey =
      restored(full, [](std::uint8_t type, wire::Reader r) {
        const std::string origin = r.str();
        return type == 1 && origin == "b" && r.u64() == 5;
      });
  EXPECT_FALSE(holey.covers(full, &missing));
  EXPECT_EQ(missing.origin, "b");
  EXPECT_EQ(missing.seq, 5u);
  EXPECT_TRUE(full.covers(holey));

  // A lower floor: "a" only through 7.
  DedupWindow lower{1, 2};
  for (std::uint64_t seq = 1; seq <= 7; ++seq) lower.insert("a", seq);
  for (const std::uint64_t seq : {1, 3, 5}) lower.insert("b", seq);
  EXPECT_FALSE(lower.covers(full, &missing));
  EXPECT_EQ(missing.origin, "a");
  EXPECT_EQ(missing.seq, 8u);
  EXPECT_TRUE(full.covers(lower));

  // Forcing the floor past b#5's neighbours covers everything below it.
  DedupWindow forced = full;
  EXPECT_TRUE(forced.insert("b", 5 + 2 * DedupWindow::kWidth));
  EXPECT_TRUE(forced.covers(full));
  EXPECT_FALSE(full.covers(forced, &missing));
  EXPECT_EQ(missing.origin, "b");
  EXPECT_EQ(missing.seq, 2u);
  EXPECT_EQ(forced.gaps(), 5 + 2 * DedupWindow::kWidth - 4);
  EXPECT_EQ(restored(forced).gaps(), forced.gaps());
}

// ---------- ParkingLot ------------------------------------------------------

TEST(ParkingLotTest, TakeReturnsLiveEntriesAndDropsExpired) {
  ParkingLot lot{ParkPolicy{.ttl = SimTime::seconds(10), .capacity = 8}};

  lot.park("coll/a", parked_env(1), SimTime::seconds(1));
  auto live = lot.take("coll/a", SimTime::seconds(5));
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].env.msg_id, 1u);
  EXPECT_EQ(lot.stats().flushed, 1u);

  lot.park("coll/a", parked_env(2), SimTime::seconds(2));
  auto dead = lot.take("coll/a", SimTime::seconds(13));  // expired at 12s
  EXPECT_TRUE(dead.empty());
  EXPECT_EQ(lot.stats().expired, 1u);
  EXPECT_EQ(lot.size(), 0u);
}

TEST(ParkingLotTest, ExpireSweepDropsOnlyPastTtl) {
  ParkingLot lot{ParkPolicy{.ttl = SimTime::seconds(10), .capacity = 8}};
  lot.park("old", parked_env(1), SimTime::seconds(0));
  lot.park("new", parked_env(2), SimTime::seconds(5));

  lot.expire(SimTime::seconds(12));
  EXPECT_FALSE(lot.has("old"));
  EXPECT_TRUE(lot.has("new"));
  EXPECT_EQ(lot.size(), 1u);
  EXPECT_EQ(lot.stats().expired, 1u);
}

TEST(ParkingLotTest, CapacityEvictsGloballyOldestFirst) {
  ParkingLot lot{ParkPolicy{.ttl = SimTime::seconds(60), .capacity = 2}};
  lot.park("k1", parked_env(1), SimTime::seconds(1));
  lot.park("k2", parked_env(2), SimTime::seconds(2));
  lot.park("k3", parked_env(3), SimTime::seconds(3));

  EXPECT_EQ(lot.size(), 2u);
  EXPECT_FALSE(lot.has("k1"));  // oldest across all keys went first
  EXPECT_EQ(lot.stats().evicted, 1u);

  auto all = lot.take_all(SimTime::seconds(4));
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].env.msg_id, 2u);  // oldest-first flush order
  EXPECT_EQ(all[1].env.msg_id, 3u);
}

}  // namespace
}  // namespace gsalert::transport
