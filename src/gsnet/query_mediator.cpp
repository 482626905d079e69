#include "gsnet/query_mediator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "gsnet/greenstone_server.h"
#include "obs/trace.h"
#include "retrieval/engine.h"

namespace gsalert::gsnet {

void QueryMediator::attach(GreenstoneServer* server) {
  server_ = server;
  ensure_endpoint();
}

void QueryMediator::ensure_endpoint() {
  if (endpoint_.attached() || server_ == nullptr) return;
  endpoint_.attach(&server_->net(), server_->id(), server_->name(),
                   0x4D5ED1A70ULL ^ server_->id().value());
}

void QueryMediator::define_virtual(std::string name,
                                   std::vector<CollectionRef> members) {
  virtuals_[std::move(name)] = std::move(members);
}

void QueryMediator::query(const std::string& vname,
                          const std::string& query_text,
                          std::function<void(MediatedQueryResult)> done) {
  const auto it = virtuals_.find(vname);
  if (it == virtuals_.end()) {
    stats_.queries += 1;
    stats_.failures += 1;
    done(MediatedQueryResult{.ok = false,
                             .error = "no virtual collection " + vname});
    return;
  }
  query_members(it->second, query_text, std::move(done));
}

MediatorReplyBody QueryMediator::answer_local(
    const std::string& collection_name, const std::string& query_text) const {
  MediatorReplyBody reply;
  // Member access is server-to-server: private collections are fair game,
  // exactly like sub-collection resolution.
  const retrieval::Engine* engine = server_->engine(collection_name);
  if (engine == nullptr) {
    reply.ok = false;
    reply.error = "no collection " + server_->name() + "." + collection_name;
    return reply;
  }
  auto hits = engine->search(query_text);
  if (!hits.ok()) {
    reply.ok = false;
    reply.error = hits.error().str();
    return reply;
  }
  reply.ok = true;
  reply.hits = std::move(hits).take();
  return reply;
}

void QueryMediator::query_members(
    const std::vector<CollectionRef>& members, const std::string& query_text,
    std::function<void(MediatedQueryResult)> done) {
  ensure_endpoint();
  stats_.queries += 1;

  struct Scatter {
    MediatedQueryResult result;
    std::size_t outstanding = 0;
    std::function<void(MediatedQueryResult)> done;
    MediatorStats* stats;

    void member_answered(std::vector<DocumentId> hits) {
      result.peers_answered += 1;
      result.hits.insert(result.hits.end(), hits.begin(), hits.end());
      finish_one();
    }
    void member_failed(std::string error) {
      result.peers_failed += 1;
      if (result.error.empty()) result.error = std::move(error);
      finish_one();
    }
    void member_timed_out() {
      result.peers_timed_out += 1;
      finish_one();
    }
    void finish_one() {
      if (--outstanding > 0) return;
      std::sort(result.hits.begin(), result.hits.end());
      result.hits.erase(
          std::unique(result.hits.begin(), result.hits.end()),
          result.hits.end());
      result.ok = result.peers_answered > 0 || result.peers_total == 0;
      result.partial = result.peers_answered < result.peers_total;
      if (result.partial) stats->partials += 1;
      done(std::move(result));
    }
  };
  auto scatter = std::make_shared<Scatter>();
  scatter->result.peers_total = static_cast<std::uint32_t>(members.size());
  // One synthetic branch keeps `outstanding` positive through dispatch.
  scatter->outstanding = members.size() + 1;
  scatter->done = std::move(done);
  scatter->stats = &stats_;

  for (const CollectionRef& member : members) {
    if (member.host == server_->name()) {
      // Local member: answer in-process, no network round trip.
      MediatorReplyBody reply = answer_local(member.name, query_text);
      stats_.local_answers += 1;
      if (reply.ok) {
        scatter->member_answered(std::move(reply.hits));
      } else {
        stats_.failures += 1;
        scatter->member_failed(std::move(reply.error));
      }
      continue;
    }
    const NodeId remote = server_->host_ref(member.host);
    if (!remote.valid()) {
      stats_.failures += 1;
      scatter->member_failed("no reference to host " + member.host);
      continue;
    }
    MediatorQueryBody request;
    request.request_id = server_->next_msg_id();
    request.collection_name = member.name;
    request.query_text = query_text;
    wire::Writer w;
    request.encode(w);
    wire::Envelope env = wire::make_envelope(
        wire::MessageType::kGsMediatorQuery, server_->name(), member.host,
        request.request_id, std::move(w));
    stats_.fanout += 1;
    endpoint_.request(
        request.request_id, std::move(env),
        {.policy = {.deadline = kPeerDeadline}, .to = remote},
        [this, scatter](const wire::Envelope* reply) {
          if (reply == nullptr) {
            stats_.timeouts += 1;
            scatter->member_timed_out();
            return;
          }
          auto decoded = MediatorReplyBody::decode(reply->body);
          if (!decoded.ok()) {
            stats_.failures += 1;
            scatter->member_failed("malformed mediator reply");
            return;
          }
          MediatorReplyBody body = std::move(decoded).take();
          stats_.replies += 1;
          if (body.ok) {
            scatter->member_answered(std::move(body.hits));
          } else {
            stats_.failures += 1;
            scatter->member_failed(std::move(body.error));
          }
        });
  }
  scatter->finish_one();
}

void QueryMediator::handle_query(NodeId from, const wire::Envelope& env) {
  auto decoded = MediatorQueryBody::decode(env.body);
  if (!decoded.ok()) return;
  const MediatorQueryBody request = std::move(decoded).take();
  MediatorReplyBody reply =
      answer_local(request.collection_name, request.query_text);
  reply.request_id = request.request_id;
  wire::Writer w;
  reply.encode(w);
  server_->send_to(
      from, wire::make_envelope(wire::MessageType::kGsMediatorReply,
                                server_->name(), env.src,
                                server_->next_msg_id(), std::move(w)));
}

void QueryMediator::handle_reply(const wire::Envelope& env) {
  auto decoded = MediatorReplyBody::decode(env.body);
  if (!decoded.ok()) return;
  endpoint_.complete(decoded.value().request_id, env);
}

void QueryMediator::collect_metrics(obs::MetricsRegistry& registry) const {
  if (server_ == nullptr) return;
  const obs::Labels labels{{"node", server_->name()}};
  registry.counter("query.mediator.queries", labels) = stats_.queries;
  registry.counter("query.mediator.fanout", labels) = stats_.fanout;
  registry.counter("query.mediator.local_answers", labels) =
      stats_.local_answers;
  registry.counter("query.mediator.replies", labels) = stats_.replies;
  registry.counter("query.mediator.timeouts", labels) = stats_.timeouts;
  registry.counter("query.mediator.failures", labels) = stats_.failures;
  registry.counter("query.mediator.partials", labels) = stats_.partials;
}

}  // namespace gsalert::gsnet
