#include "gsnet/receptionist.h"

namespace gsalert::gsnet {

void Receptionist::add_host(const std::string& host, NodeId server) {
  hosts_[host] = server;
}

void Receptionist::on_start() { ensure_endpoint(); }

void Receptionist::ensure_endpoint() {
  // Network::start only schedules on_start; requests issued before the
  // scheduler runs (test setup code does this) must self-attach.
  if (!endpoint_.attached()) {
    endpoint_.attach(&network(), id(), name(), 0x2ECE971051ULL ^ id().value());
  }
}

void Receptionist::open_collection(const CollectionRef& ref,
                                   std::function<void(CollResult)> done) {
  ensure_endpoint();
  const auto host = hosts_.find(ref.host);
  if (host == hosts_.end()) {
    done(CollResult{.ok = false,
                    .error = "receptionist has no access to host " +
                             ref.host});
    return;
  }
  CollRequestBody request;
  request.request_id = next_request_++;
  request.collection_name = ref.name;
  request.as_subcollection = false;
  wire::Writer w;
  request.encode(w);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGsCollRequest, name(), ref.host,
      request.request_id, std::move(w));
  endpoint_.request(
      request.request_id, std::move(env),
      {.policy = {.deadline = kRequestTimeout}, .to = host->second},
      [done = std::move(done)](const wire::Envelope* reply) {
        if (reply == nullptr) {
          done(CollResult{.ok = false, .error = "request timed out"});
          return;
        }
        auto body = CollResponseBody::decode(reply->body);
        if (!body.ok()) {
          done(CollResult{.ok = false, .error = "malformed response"});
          return;
        }
        CollResponseBody response = std::move(body).take();
        CollResult result;
        result.ok = response.ok;
        result.error = std::move(response.error);
        result.docs = std::move(response.docs);
        result.hops = response.hops;
        result.servers_contacted = response.servers_contacted;
        done(std::move(result));
      });
}

void Receptionist::search_collection(const CollectionRef& ref,
                                     const std::string& query_text,
                                     std::function<void(SearchResult)> done) {
  ensure_endpoint();
  const auto host = hosts_.find(ref.host);
  if (host == hosts_.end()) {
    done(SearchResult{.ok = false,
                      .error = "receptionist has no access to host " +
                               ref.host});
    return;
  }
  SearchRequestBody request;
  request.request_id = next_request_++;
  request.collection_name = ref.name;
  request.query_text = query_text;
  wire::Writer w;
  request.encode(w);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGsSearchRequest, name(), ref.host,
      request.request_id, std::move(w));
  endpoint_.request(
      request.request_id, std::move(env),
      {.policy = {.deadline = kRequestTimeout}, .to = host->second},
      [done = std::move(done)](const wire::Envelope* reply) {
        if (reply == nullptr) {
          done(SearchResult{.ok = false, .error = "request timed out"});
          return;
        }
        auto body = SearchResponseBody::decode(reply->body);
        if (!body.ok()) {
          done(SearchResult{.ok = false, .error = "malformed response"});
          return;
        }
        SearchResponseBody response = std::move(body).take();
        SearchResult result;
        result.ok = response.ok;
        result.error = std::move(response.error);
        result.hits = std::move(response.hits);
        result.hops = response.hops;
        result.servers_contacted = response.servers_contacted;
        done(std::move(result));
      });
}

void Receptionist::on_packet(NodeId /*from*/, const sim::Packet& packet) {
  auto decoded = wire::unpack(packet);
  if (!decoded.ok()) return;
  const wire::Envelope& env = decoded.value();
  if (env.type == wire::MessageType::kGsCollResponse) {
    auto body = CollResponseBody::decode(env.body);
    if (!body.ok()) return;
    endpoint_.complete(body.value().request_id, env);
    return;
  }
  if (env.type == wire::MessageType::kGsSearchResponse) {
    auto body = SearchResponseBody::decode(env.body);
    if (!body.ok()) return;
    endpoint_.complete(body.value().request_id, env);
  }
}

}  // namespace gsalert::gsnet
