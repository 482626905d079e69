// Per-peer reliable channel: seq/ack/retransmit with a receiver-side
// dedup window and in-order delivery. Subsumes the alerting service's
// hand-rolled outbox (paper §7: aux-profile installs and EventForwards
// must be "delayed, not lost" across partitions and crashes).
//
// Wire mapping: a channel message is an ordinary wire::Envelope whose
// `msg_id` carries the per-peer sequence number and whose `chan_base`
// header field carries the sender's lowest-unacked sequence. The
// receiver derives its dedup floor from `chan_base` (floor = base - 1),
// so first contact never mistakes a retransmitted-but-unseen sequence
// for a duplicate. Acks echo the sequence in `msg_id` and are matched by
// (peer name, seq). Retransmits re-stamp headers only; the body frame
// is aliased across attempts (zero-copy).
//
// Durability: channel state mirrors the outbox it replaces. The set
// journals its own records (one per send / ack / floor advance, at type
// numbers its owner assigns), writes its full state as the same records
// into snapshots, and rebuilds itself on recovery from clear_peers() +
// replay(); a set with no journal is rebuilt by its owner via restore().
// The receiver acks a seq only once it is delivered (or is at or below
// the floor), so everything in its reorder buffer is still the sender's:
// the buffer is volatile, a crash drops it, the sender's retransmits
// re-fill it, and the floor keeps redelivery duplicate-free.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "journal/journal.h"
#include "sim/network.h"
#include "transport/policy.h"
#include "wire/envelope.h"

namespace gsalert::transport {

struct ChannelStats {
  std::uint64_t sends = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acked = 0;
  std::uint64_t dup_drops = 0;        // receiver: already-delivered seq
  std::uint64_t reorder_buffered = 0; // receiver: held for a gap
  std::uint64_t reorder_overflows = 0;  // buffer full: refused, unacked
  std::uint64_t delivered = 0;        // handed to the owner, in order
};

/// All reliable channels of one node, keyed by peer name. One retry
/// timer serves every channel (the set arms it itself); per-entry
/// deadlines follow the ChannelPolicy's backoff + deterministic jitter so
/// co-parked senders desynchronize after a partition heals.
class ChannelSet {
 public:
  /// Cap on out-of-order envelopes buffered per peer. An arrival beyond
  /// it is refused unacked; the sender retransmits it.
  static constexpr std::size_t kReorderCap = 64;

  /// Transmit hook: how a stamped envelope reaches `peer` (direct send
  /// or GDS relay — the channel does not route).
  using TransmitFn =
      std::function<void(const std::string& peer, const wire::Envelope&)>;

  void attach(sim::Network* net, NodeId self, std::string self_name,
              TransmitFn transmit, std::uint64_t jitter_seed);
  bool attached() const { return net_ != nullptr; }

  /// --- Durability ---------------------------------------------------------
  /// Journal every durable-state mutation through `log` as records of
  /// type `first` (send: peer str, seq u64, envelope bytes), first + 1
  /// (ack: peer str, seq u64) and first + 2 (floor: peer str, floor u64).
  /// Snapshots add `peer_type` (peer str, next_seq u64, floor u64).
  void set_journal(std::function<journal::RecordSink()> log,
                   std::uint8_t first, std::uint8_t peer_type);
  /// Full durable state (sender seqs, receiver floors, unacked envelopes;
  /// no reorder buffer) as records: every peer record, then the unacked
  /// sends in (peer, seq) order — the order replay draws retransmit
  /// jitter in.
  void snapshot(const journal::RecordSink& out) const;
  /// Apply one of this set's records (call after attach(): restored sends
  /// get fresh retransmit deadlines). False when `type` is not ours or
  /// the payload does not decode.
  bool replay(std::uint8_t type, wire::Reader& r);
  /// Recovery (replay(), or an owner rebuilding an unjournaled set after
  /// attach()): raise `peer`'s next seq and floor to at least these;
  /// `unacked` goes back under seq `next_seq - 1`, due afresh.
  void restore(const std::string& peer, std::uint64_t next_seq,
               std::uint64_t floor,
               std::optional<wire::Envelope> unacked = std::nullopt);
  /// Drop all per-peer state; replay or restore rebuilds it.
  void clear_peers() { peers_.clear(); }

  /// Stamp (seq, chan_base) onto `env`, store it for retransmission and
  /// transmit. Returns the assigned sequence number.
  std::uint64_t send(const std::string& peer, wire::Envelope env);

  /// Process an ack for (peer, seq). Returns false for unknown seqs
  /// (duplicate acks after delivery — harmless).
  bool on_ack(const std::string& peer, std::uint64_t seq);

  struct Incoming {
    /// The seq is at or below the floor: delivered before. The caller
    /// acks it again (the earlier ack may have been lost).
    bool duplicate = false;
    /// Envelopes now deliverable in order (possibly several, when this
    /// arrival plugs a gap). Each keeps its original trace stamps. The
    /// caller acks each one.
    std::vector<wire::Envelope> deliver;
  };
  /// Process incoming channel data (peer = env.src). The caller acks
  /// only what this reports delivered: an arrival that is buffered for a
  /// gap, already buffered, or refused because the buffer is full stays
  /// unacked, and the sender keeps retransmitting it.
  Incoming on_data(const wire::Envelope& env);

  /// Re-arm the retry timer after a node restart (state is durable,
  /// pre-crash timers are gone).
  void on_restart();

  std::size_t unacked_total() const;
  const ChannelStats& stats() const { return stats_; }

 private:
  struct Unacked {
    wire::Envelope env;
    SimTime due;        // next retransmit time
    SimTime rto;        // current backoff interval
    SimTime first_sent; // original transmit time; retry spans report
                        // since_ms = now - first_sent (retransmit delay)
  };
  struct PeerState {
    std::uint64_t next_seq = 1;              // sender side
    std::map<std::uint64_t, Unacked> unacked;
    std::uint64_t floor = 0;                 // receiver: delivered through
    std::map<std::uint64_t, wire::Envelope> reorder;
  };

  Incoming on_data_apply(PeerState& state, const wire::Envelope& env);
  /// The live log (a dropping sink when the set is not journaled).
  journal::RecordSink log() const { return log_ ? log_() : nullptr; }
  void stamp_and_transmit(const std::string& peer, PeerState& state,
                          std::uint64_t seq, Unacked& entry);
  void arm(SimTime due);
  /// The retry timer fired: retransmit every due entry, re-arm.
  void on_retry_timer();
  SimTime earliest_due() const;

  sim::Network* net_ = nullptr;
  NodeId self_;
  std::string self_name_;
  TransmitFn transmit_;
  std::function<journal::RecordSink()> log_;
  std::uint8_t first_type_ = 0;
  std::uint8_t peer_type_ = 0;
  static constexpr ChannelPolicy kPolicy{};
  Rng rng_{0};
  std::map<std::string, PeerState> peers_;
  bool armed_ = false;
  SimTime timer_target_;
  ChannelStats stats_;
};

}  // namespace gsalert::transport
