#include "baselines/profile_flooding.h"

#include "alerting/messages.h"
#include "profiles/event_context.h"
#include "profiles/parser.h"

namespace gsalert::baselines {

namespace {
std::string owner_key(const std::string& server, SubscriptionId sub) {
  return server + "#" + std::to_string(sub);
}
}  // namespace

void ProfileFloodAlerting::add_neighbor(const std::string& host,
                                        NodeId node) {
  neighbors_.emplace_back(host, node);
}

void ProfileFloodAlerting::flood(const RemoteProfileBody& body,
                                 NodeId except) {
  wire::Writer w;
  body.encode(w);
  const wire::Envelope env = wire::make_envelope(
      wire::MessageType::kProfileFlood, server_->name(), "",
      server_->next_msg_id(), std::move(w));
  for (const auto& [host, node] : neighbors_) {
    if (node == except) continue;
    server_->send_to(node, env);
    stats_.floods_forwarded += 1;
  }
}

void ProfileFloodAlerting::apply_remote(const RemoteProfileBody& body,
                                        NodeId /*from*/) {
  const std::string key = owner_key(body.owner_server, body.owner_sub_id);
  if (body.remove) {
    const auto it = remote_by_owner_.find(key);
    if (it != remote_by_owner_.end()) {
      (void)remote_index_.remove(it->second);
      owners_.erase(it->second);
      remote_by_owner_.erase(it);
    }
    return;
  }
  if (remote_by_owner_.contains(key)) return;  // re-flood of known profile
  auto parsed = profiles::parse_profile(body.profile_text);
  if (!parsed.ok()) return;
  const profiles::ProfileId id = next_remote_id_++;
  parsed.value().id = id;
  if (remote_index_.add(std::move(parsed).take()).is_ok()) {
    remote_by_owner_[key] = id;
    owners_[id] = {body.owner_server, body.owner_sub_id};
    stats_.profiles_stored += 1;
  }
}

void ProfileFloodAlerting::on_subscribed(const Sub& sub,
                                         profiles::Profile profile) {
  if (covering_) {
    MergeEntry& entry = merged_[sub.profile_text];
    entry.members.insert(profile.id);
    if (entry.members.size() > 1) return;  // covered: already flooded
    entry.rep_id = profile.id;
    rep_text_[profile.id] = sub.profile_text;
  }
  RemoteProfileBody body;
  body.owner_server = server_->name();
  body.owner_sub_id = profile.id;
  body.profile_text = sub.profile_text;
  body.flood_seq = next_flood_seq_++;
  seen_.insert(body.owner_server, body.flood_seq);
  apply_remote(body, NodeId::invalid());  // store locally too
  flood(body, NodeId::invalid());
}

void ProfileFloodAlerting::on_cancelled(SubscriptionId id, const Sub& sub) {
  SubscriptionId flooded_id = id;
  if (covering_) {
    const auto it = merged_.find(sub.profile_text);
    if (it == merged_.end()) return;
    it->second.members.erase(id);
    if (!it->second.members.empty()) return;  // others still covered by it
    flooded_id = it->second.rep_id;
    rep_text_.erase(flooded_id);
    merged_.erase(it);
  }
  RemoteProfileBody body;
  body.owner_server = server_->name();
  body.owner_sub_id = flooded_id;
  body.remove = true;
  body.flood_seq = next_flood_seq_++;
  seen_.insert(body.owner_server, body.flood_seq);
  apply_remote(body, NodeId::invalid());
  flood(body, NodeId::invalid());
}

void ProfileFloodAlerting::deliver_owned(SubscriptionId flooded_id,
                                         const docmodel::Event& event) {
  if (covering_) {
    const auto text = rep_text_.find(flooded_id);
    if (text == rep_text_.end()) {
      stats_.orphan_notifications += 1;
      return;
    }
    for (SubscriptionId member : merged_[text->second].members) {
      notify_client(member, event);
    }
    return;
  }
  if (!subs_.contains(flooded_id)) {
    stats_.orphan_notifications += 1;
    return;
  }
  notify_client(flooded_id, event);
}

void ProfileFloodAlerting::on_local_event(const docmodel::Event& event) {
  const profiles::EventContext ctx = profiles::EventContext::from(event);
  for (profiles::ProfileId id : remote_index_.match(ctx)) {
    const auto owner = owners_.find(id);
    if (owner == owners_.end()) continue;
    if (owner->second.first == server_->name()) {
      deliver_owned(owner->second.second, event);
      continue;
    }
    // Remote owner: unicast the notification to the owner's server, which
    // relays it to the user (direct host reference, favourable to B2).
    const NodeId dest = server_->host_ref(owner->second.first);
    if (!dest.valid()) continue;
    alerting::NotificationBody note;
    note.subscription_id = owner->second.second;
    note.event = event;
    wire::Writer w;
    note.encode(w);
    server_->send_to(dest,
                     wire::make_envelope(wire::MessageType::kFloodNotify,
                                         server_->name(), "",
                                         server_->next_msg_id(),
                                         std::move(w)));
    stats_.remote_notifies += 1;
  }
}

bool ProfileFloodAlerting::handle_strategy_envelope(NodeId from,
                                                    const wire::Envelope& env) {
  switch (env.type) {
    case wire::MessageType::kProfileFlood: {
      auto body = RemoteProfileBody::decode(env.body);
      if (!body.ok()) return true;
      const RemoteProfileBody& msg = body.value();
      if (!seen_.insert(msg.owner_server, msg.flood_seq)) {
        stats_.duplicate_floods += 1;
        return true;
      }
      apply_remote(msg, from);
      flood(msg, from);
      return true;
    }
    case wire::MessageType::kFloodNotify: {
      auto body = alerting::NotificationBody::decode(env.body);
      if (!body.ok()) return true;
      // If the flooded id no longer maps to a live subscription, the
      // remote broker matched an orphan profile: the cancellation never
      // reached it (it was disconnected). deliver_owned counts that —
      // the false-positive pathology of profile flooding (paper §2.2).
      deliver_owned(body.value().subscription_id, body.value().event);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace gsalert::baselines
