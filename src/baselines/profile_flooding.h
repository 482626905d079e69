// Baseline B2 — profile flooding over a broker overlay in the style of
// Siena/Rebeca (paper §2.2): every subscription is flooded to every broker
// (here: every DL server, over its GS-network neighbor links); events are
// matched where they occur and notifications unicast back to the owner.
//
// This is the strategy the paper rejects for Greenstone: on a fragmented,
// churning network, cancellations cannot reach disconnected brokers, which
// keep ORPHAN PROFILES and emit spurious notifications (false positives) —
// exactly what experiment E5 measures.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/messages.h"
#include "baselines/subscription_base.h"
#include "profiles/index.h"
#include "transport/dedup_window.h"

namespace gsalert::baselines {

struct ProfileFloodStats {
  std::uint64_t profiles_stored = 0;     // remote profiles currently held
  std::uint64_t floods_forwarded = 0;
  std::uint64_t duplicate_floods = 0;
  std::uint64_t remote_notifies = 0;     // notifications sent to owners
  /// Notifications that arrived for a subscription that no longer exists —
  /// the user-visible symptom of an orphan profile on a broker that missed
  /// the cancellation (experiment E5's false-positive count).
  std::uint64_t orphan_notifications = 0;
};

class ProfileFloodAlerting : public SubscriptionExtensionBase {
 public:
  /// covering: merge identical subscriptions before flooding (the
  /// Rebeca-style covering/merging optimization in its
  /// identical-profiles special case, paper §2.2): one flooded entry
  /// represents every local subscription with the same text; remote
  /// matches are expanded back to all members at the owner.
  explicit ProfileFloodAlerting(bool covering = false)
      : covering_(covering) {}

  /// Overlay neighbor (a GS-network link to another server running the
  /// same strategy).
  void add_neighbor(const std::string& host, NodeId node);

  void on_local_event(const docmodel::Event& event) override;

  const ProfileFloodStats& flood_stats() const { return stats_; }
  std::size_t remote_profile_count() const {
    return remote_index_.profile_count();
  }

 protected:
  void on_subscribed(const Sub& sub, profiles::Profile profile) override;
  void on_cancelled(SubscriptionId id, const Sub& sub) override;
  bool handle_strategy_envelope(NodeId from,
                                const wire::Envelope& env) override;

 private:
  void flood(const RemoteProfileBody& body, NodeId except);
  void apply_remote(const RemoteProfileBody& body, NodeId from);
  /// Deliver a matched event to the owner-side subscription(s) behind a
  /// flooded id (one sub, or all merged members under covering).
  void deliver_owned(SubscriptionId flooded_id, const docmodel::Event& event);

  bool covering_;
  /// Covering state: profile text -> representative flooded id + members.
  struct MergeEntry {
    SubscriptionId rep_id = 0;
    std::set<SubscriptionId> members;
  };
  std::map<std::string, MergeEntry> merged_;
  std::unordered_map<SubscriptionId, std::string> rep_text_;

  std::vector<std::pair<std::string, NodeId>> neighbors_;
  // All profiles known here, local and remote, keyed by a dense id.
  profiles::ProfileIndex remote_index_;
  profiles::ProfileId next_remote_id_ = 1;
  // (owner server, owner sub id) -> local dense id.
  std::unordered_map<std::string, profiles::ProfileId> remote_by_owner_;
  // dense id -> (owner server name, owner sub id).
  std::unordered_map<profiles::ProfileId,
                     std::pair<std::string, SubscriptionId>>
      owners_;
  // Flood dedup, per owner server.
  transport::DedupWindow seen_;
  std::uint64_t next_flood_seq_ = 1;
  ProfileFloodStats stats_;
};

}  // namespace gsalert::baselines
