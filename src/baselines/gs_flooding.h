// Baseline B4 — naive event flooding over the raw Greenstone network
// (what the paper argues AGAINST using, §1/§4): events travel the existing
// GS links themselves. On the real Greenstone topology this fails two
// ways, which bench E7 measures:
//   - islands: most servers are solitary, so events never reach them
//     (false negatives), and
//   - cycles: without duplicate suppression, events circulate until TTL
//     exhausts, multiplying traffic.
// Duplicate suppression is a switch so the ablation can separate the two.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/subscription_base.h"
#include "profiles/index.h"
#include "transport/dedup_window.h"

namespace gsalert::baselines {

struct GsFloodStats {
  std::uint64_t events_flooded = 0;     // local events injected
  std::uint64_t events_received = 0;    // flood messages accepted
  std::uint64_t duplicates = 0;         // seen again (suppressed or not)
  std::uint64_t forwards = 0;           // flood messages sent on
};

class GsFloodAlerting : public SubscriptionExtensionBase {
 public:
  explicit GsFloodAlerting(bool dedup_enabled = true,
                           std::uint16_t ttl = 16)
      : dedup_enabled_(dedup_enabled), ttl_(ttl) {}

  void add_neighbor(const std::string& host, NodeId node);

  void on_local_event(const docmodel::Event& event) override;

  const GsFloodStats& flood_stats() const { return stats_; }

 protected:
  void on_subscribed(const Sub& sub, profiles::Profile profile) override;
  void on_cancelled(SubscriptionId id, const Sub& sub) override;
  bool handle_strategy_envelope(NodeId from,
                                const wire::Envelope& env) override;

 private:
  void filter_local(const docmodel::Event& event);
  void forward(const docmodel::Event& event, std::uint16_t ttl,
               NodeId except);

  bool dedup_enabled_;
  std::uint16_t ttl_;
  std::vector<std::pair<std::string, NodeId>> neighbors_;
  profiles::ProfileIndex index_;
  transport::DedupWindow seen_;  // event ids, per origin
  GsFloodStats stats_;
};

}  // namespace gsalert::baselines
