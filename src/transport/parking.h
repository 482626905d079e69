// Store-and-forward parking: bounded, TTL'd custody for messages whose
// next hop is unknown right now (paper §4.1: the GDS offers
// "store-and-forward messaging"; §6.2: a relay target may simply not be
// registered *yet*). A GDS node parks instead of dropping, and flushes
// when the name registers, a child advertises it, or the node acquires
// a parent.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "transport/policy.h"
#include "wire/envelope.h"

namespace gsalert::transport {

struct ParkStats {
  std::uint64_t parked = 0;
  std::uint64_t flushed = 0;
  std::uint64_t expired = 0;
  std::uint64_t evicted = 0;  // capacity pressure: oldest dropped first
};

class ParkingLot {
 public:
  struct Entry {
    wire::Envelope env;
    SimTime expires_at;
    SimTime parked_at;        // custody start; flush spans report dwell
    std::uint64_t order = 0;  // global FIFO position; stable custody id
  };

  explicit ParkingLot(ParkPolicy policy = {}) : policy_(policy) {}
  void set_policy(ParkPolicy policy) { policy_ = policy; }

  /// Park `env` under `key` (the unresolved destination name). At
  /// capacity the globally oldest entry is evicted first (FIFO across
  /// keys), so a hot unknown name cannot starve the rest. Returns the
  /// entry's custody order id (journaled by durable owners).
  std::uint64_t park(const std::string& key, wire::Envelope env, SimTime now);
  /// Same, preserving an existing expiry (re-park after a failed flush).
  /// `parked_at` marks custody start for dwell accounting.
  std::uint64_t park_until(const std::string& key, wire::Envelope env,
                           SimTime expires_at, SimTime parked_at);

  /// Re-insert an entry with its original custody id (journal replay).
  /// Each key's entries arrive in order-id order (the log's order, and
  /// for_each's within a key); capacity is not re-enforced here
  /// (the journal never holds more live parks than capacity allowed).
  /// The journal record does not carry parked_at (format is frozen), so
  /// custody start is approximated as expires_at - policy ttl — exact
  /// whenever the entry was parked with the policy's own TTL, and
  /// deterministic either way.
  void restore(const std::string& key, wire::Envelope env, SimTime expires_at,
               std::uint64_t order);

  /// Remove the entry with custody id `order` (journal replay of an
  /// unpark). No hook, no stats — replay bookkeeping only.
  bool remove_order(std::uint64_t order);

  /// Invoked with the custody id of every entry the lot drops on its own
  /// (TTL expiry, capacity eviction) — NOT for entries handed back via
  /// take/take_all. Durable owners journal the unpark here.
  void set_removal_hook(std::function<void(std::uint64_t order)> fn) {
    removal_hook_ = std::move(fn);
  }

  /// Visit every live entry (key order, FIFO within key) for snapshots.
  void for_each(const std::function<void(const std::string& key,
                                         const Entry& entry)>& fn) const;

  /// Remove and return every live entry for `key`, oldest first.
  /// Entries already past their TTL are counted expired and dropped.
  std::vector<Entry> take(const std::string& key, SimTime now);
  /// Remove and return every live entry across all keys, oldest first
  /// (flush-to-new-parent after a re-parent).
  std::vector<Entry> take_all(SimTime now);

  /// Drop entries past their TTL (periodic sweep, e.g. per heartbeat).
  void expire(SimTime now);

  void clear() { by_key_.clear(); size_ = 0; }
  bool has(const std::string& key) const { return by_key_.count(key) > 0; }
  std::size_t size() const { return size_; }
  const ParkStats& stats() const { return stats_; }

 private:
  struct Parked {
    wire::Envelope env;
    SimTime expires_at;
    SimTime parked_at;
    std::uint64_t order;  // global FIFO position for eviction
  };

  void evict_oldest();

  ParkPolicy policy_;
  std::map<std::string, std::deque<Parked>> by_key_;
  std::size_t size_ = 0;
  std::uint64_t next_order_ = 0;
  std::function<void(std::uint64_t)> removal_hook_;
  ParkStats stats_;
};

}  // namespace gsalert::transport
