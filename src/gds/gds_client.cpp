#include "gds/gds_client.h"

#include <cassert>

namespace gsalert::gds {

void GdsClient::attach(sim::Network* net, NodeId self, std::string self_name,
                       NodeId gds_node) {
  assert(net != nullptr);
  net_ = net;
  self_ = self;
  self_name_ = std::move(self_name);
  gds_node_ = gds_node;
  endpoint_.attach(net_, self_, self_name_, 0x9D5C11E47ULL ^ self_.value());
}

void GdsClient::send_register() {
  RegisterBody body{self_name_};
  wire::Writer w;
  body.encode(w);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGdsRegister, self_name_, "", next_seq_++,
      std::move(w));
  net_->send(self_, gds_node_, env.pack());
}

void GdsClient::start() {
  if (!attached()) return;
  on_refresh_timer();
}

void GdsClient::on_refresh_timer() {
  send_register();
  net_->set_timer(self_, kRefreshInterval, [this] { on_refresh_timer(); });
}

void GdsClient::unregister() {
  if (!attached()) return;
  RegisterBody body{self_name_};
  wire::Writer w;
  body.encode(w);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGdsUnregister, self_name_, "", next_seq_++,
      std::move(w));
  net_->send(self_, gds_node_, env.pack());
}

std::uint64_t GdsClient::broadcast(std::uint16_t payload_type,
                                   std::span<const std::byte> payload) {
  assert(attached());
  const std::uint64_t seq = next_broadcast_seq_++;
  wire::Writer w;
  w.reserve(BroadcastBody::wire_size(self_name_, payload.size()));
  BroadcastBody::encode(w, self_name_, seq, payload_type, payload);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGdsBroadcast, self_name_, "", seq, std::move(w));
  net_->send(self_, gds_node_, env.pack());
  return seq;
}

void GdsClient::relay(const std::string& dst, std::uint16_t payload_type,
                      std::vector<std::byte> payload) {
  assert(attached());
  RelayBody body;
  body.origin_server = self_name_;
  body.dst_server = dst;
  body.payload_type = payload_type;
  body.payload = std::move(payload);
  wire::Writer w;
  // str + str + u16 + bytes
  w.reserve(4 + body.origin_server.size() + 4 + body.dst_server.size() + 2 +
            4 + body.payload.size());
  body.encode(w);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGdsRelay, self_name_, dst, next_seq_++,
      std::move(w));
  net_->send(self_, gds_node_, env.pack());
}

std::uint64_t GdsClient::multicast(std::vector<std::string> targets,
                                   std::uint16_t payload_type,
                                   std::vector<std::byte> payload) {
  assert(attached());
  MulticastBody body;
  body.origin_server = self_name_;
  body.seq = next_seq_++;
  body.targets = std::move(targets);
  body.payload_type = payload_type;
  body.payload = std::move(payload);
  wire::Writer w;
  body.encode(w);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGdsMulticast, self_name_, "", body.seq,
      std::move(w));
  net_->send(self_, gds_node_, env.pack());
  return body.seq;
}

void GdsClient::resolve(const std::string& server_name,
                        ResolveCallback callback) {
  assert(attached());
  ResolveBody body;
  body.query_id = next_query_++;
  body.server_name = server_name;
  wire::Writer w;
  body.encode(w);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGdsResolve, self_name_, "", next_seq_++,
      std::move(w));
  endpoint_.request(
      body.query_id, std::move(env),
      {.policy = kResolvePolicy, .to = gds_node_},
      [cb = std::move(callback)](const wire::Envelope* reply) {
        if (reply == nullptr) {  // deadline: report not-found
          cb(false, "");
          return;
        }
        auto decoded = ResolveReplyBody::decode(reply->body);
        if (!decoded.ok()) {
          cb(false, "");
          return;
        }
        cb(decoded.value().found, decoded.value().owner_gds);
      });
}

bool GdsClient::handle_resolve_reply(const wire::Envelope& env) {
  auto decoded = ResolveReplyBody::decode(env.body);
  if (!decoded.ok()) return false;
  return endpoint_.complete(decoded.value().query_id, env);
}

}  // namespace gsalert::gds
