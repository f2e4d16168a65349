#include "dht/lookup.h"

#include <algorithm>

namespace ipfs::dht {

namespace {

const char* lookup_span_name(LookupType type) {
  switch (type) {
    case LookupType::kFindNode:
      return "dht.lookup.find_node";
    case LookupType::kGetProviders:
      return "dht.lookup.get_providers";
    case LookupType::kGetValue:
      return "dht.lookup.get_value";
  }
  return "dht.lookup.find_node";
}

}  // namespace

std::shared_ptr<Lookup> Lookup::start(
    LookupHost host, LookupType type, Key target, std::vector<PeerRef> seeds,
    Callback cb, std::optional<multiformats::PeerId> target_peer) {
  auto lookup = std::shared_ptr<Lookup>(new Lookup(
      std::move(host), type, std::move(target), std::move(cb),
      std::move(target_peer)));
  lookup->started_at_ = lookup->host_.transport->now();
  lookup->span_ = lookup->host_.transport->metrics().begin_span(
      lookup_span_name(type), lookup->host_.transport->local(), {},
      lookup->host_.parent_span);
  lookup->deadline_timer_ = lookup->host_.transport->schedule_after(
      kLookupDeadline, [weak = std::weak_ptr<Lookup>(lookup)] {
        if (auto self = weak.lock()) self->finish(false);
      });
  for (const auto& seed : seeds) lookup->add_candidate(seed);
  if (lookup->candidates_.empty()) {
    lookup->finish(true);
  } else {
    lookup->pump();
  }
  return lookup;
}

Lookup::Lookup(LookupHost host, LookupType type, Key target, Callback cb,
               std::optional<multiformats::PeerId> target_peer)
    : host_(std::move(host)),
      type_(type),
      target_(std::move(target)),
      cb_(std::move(cb)),
      target_peer_(std::move(target_peer)) {}

void Lookup::add_candidate(const PeerRef& peer) {
  if (peer.node == host_.transport->local()) return;
  const Distance distance = Key::for_peer(peer.id).distance_to(target_);
  const auto at = candidates_.lower_bound(distance);
  if (at != candidates_.end() && at->first == distance) return;
  candidates_.emplace_hint(at, distance,
                           Candidate{peer, CandidateState::kUnqueried});

  // Early peer-discovery match: someone handed us the target's addresses.
  if (target_peer_ && peer.id == *target_peer_) {
    result_.target_peer = peer;
  }
}

bool Lookup::should_terminate() const {
  if (type_ == LookupType::kGetProviders &&
      result_.providers.size() >= std::max<std::size_t>(
                                      host_.provider_quorum, 1))
    return true;
  if (type_ == LookupType::kGetValue &&
      result_.values.size() >= kValueQuorum)
    return true;
  if (target_peer_ && result_.target_peer.has_value()) return true;

  // FindNode termination: the k closest non-failed candidates have all
  // responded (no closer unqueried or in-flight candidate remains).
  std::size_t seen = 0;
  for (const auto& [distance, candidate] : candidates_) {
    if (candidate.state == CandidateState::kFailed) continue;
    if (candidate.state != CandidateState::kResponded) return false;
    if (++seen >= kReplication) break;
  }
  return true;
}

void Lookup::pump() {
  if (finished_) return;
  if (should_terminate()) {
    // Any straggler queries are abandoned; their routing-table feedback
    // was best-effort anyway.
    finish(true);
    return;
  }

  for (auto& [distance, candidate] : candidates_) {
    if (in_flight_ >= kAlpha) break;
    if (candidate.state != CandidateState::kUnqueried) continue;
    candidate.state = CandidateState::kInFlight;
    ++in_flight_;
    query(distance);
  }

  // No queries possible and none in flight: candidate space exhausted.
  if (in_flight_ == 0) finish(true);
}

void Lookup::query(const Distance& distance) {
  const sim::NodeId node = candidates_.at(distance).peer.node;
  auto self = shared_from_this();
  host_.transport->connect(node, [self, distance](bool ok, sim::Duration) {
    self->on_dial_result(distance, ok);
  });
}

void Lookup::on_dial_result(const Distance& distance, bool ok) {
  if (finished_) return;
  Candidate& candidate = candidates_.at(distance);
  if (!ok) {
    candidate.state = CandidateState::kFailed;
    --in_flight_;
    ++result_.dials_failed;
    host_.transport->metrics().counter("dht.lookup.dials_failed").inc();
    if (host_.on_peer_failed) host_.on_peer_failed(candidate.peer);
    pump();
    return;
  }

  sim::MessagePtr request;
  switch (type_) {
    case LookupType::kFindNode: {
      auto msg = std::make_shared<FindNodeRequest>();
      msg->target = target_;
      msg->requester = host_.self_ref;
      msg->requester_is_server = host_.server_mode;
      request = std::move(msg);
      break;
    }
    case LookupType::kGetProviders: {
      auto msg = std::make_shared<GetProvidersRequest>();
      msg->key = target_;
      msg->requester = host_.self_ref;
      msg->requester_is_server = host_.server_mode;
      request = std::move(msg);
      break;
    }
    case LookupType::kGetValue: {
      auto msg = std::make_shared<GetValueRequest>();
      msg->key = target_;
      msg->requester = host_.self_ref;
      msg->requester_is_server = host_.server_mode;
      request = std::move(msg);
      break;
    }
  }

  ++result_.rpcs_sent;
  host_.transport->metrics().counter("dht.lookup.rpcs_sent").inc();
  auto self = shared_from_this();
  host_.transport->request(
      candidate.peer.node, std::move(request), kRequestBaseBytes, kRpcTimeout,
      [self, distance](sim::RpcStatus status,
                       const sim::MessagePtr& message) {
        self->on_response(distance, status, message);
      });
}

void Lookup::on_response(const Distance& distance, sim::RpcStatus status,
                         const sim::MessagePtr& message) {
  if (finished_) return;
  Candidate& candidate = candidates_.at(distance);
  --in_flight_;

  if (status != sim::RpcStatus::kOk) {
    candidate.state = CandidateState::kFailed;
    ++result_.rpcs_failed;
    host_.transport->metrics().counter("dht.lookup.rpcs_failed").inc();
    if (host_.on_peer_failed) host_.on_peer_failed(candidate.peer);
    pump();
    return;
  }

  candidate.state = CandidateState::kResponded;
  if (host_.on_peer_responded) host_.on_peer_responded(candidate.peer);

  const sim::MessageKind kind = message->kind();
  const std::vector<PeerRef>* closer = nullptr;
  if (kind == sim::MessageKind::kFindNodeResponse) {
    closer = &static_cast<const FindNodeResponse*>(message.get())->closer;
  } else if (kind == sim::MessageKind::kGetProvidersResponse) {
    const auto* providers =
        static_cast<const GetProvidersResponse*>(message.get());
    closer = &providers->closer;
    for (const auto& record : providers->providers) {
      // Several resolvers replicate the same record; carrying duplicates
      // forward would skew retrieval's dial ordering (the same provider
      // dialed twice while a distinct fallback waits).
      const bool seen = std::any_of(
          result_.providers.begin(), result_.providers.end(),
          [&record](const ProviderRecord& have) {
            return have.provider.id == record.provider.id;
          });
      if (seen) {
        host_.transport->metrics()
            .counter("dht.lookup.duplicate_providers_dropped")
            .inc();
        continue;
      }
      result_.providers.push_back(record);
    }
  } else if (kind == sim::MessageKind::kGetValueResponse) {
    const auto* value = static_cast<const GetValueResponse*>(message.get());
    closer = &value->closer;
    if (value->record) result_.values.push_back(*value->record);
  }

  if (closer != nullptr)
    for (const auto& peer : *closer) add_candidate(peer);
  pump();
}

void Lookup::abort() {
  if (finished_) return;
  finished_ = true;
  deadline_timer_.cancel();
  host_.transport->metrics().end_span(span_, false);
  // In-flight RPC callbacks see finished_ and return without effect.
}

void Lookup::finish(bool completed) {
  if (finished_) return;
  finished_ = true;
  deadline_timer_.cancel();
  result_.completed = completed;
  result_.elapsed = host_.transport->now() - started_at_;
  host_.transport->metrics().end_span(
      span_, completed, static_cast<std::uint64_t>(result_.rpcs_sent));

  // Assemble the closest responded set.
  for (const auto& [distance, candidate] : candidates_) {
    if (candidate.state != CandidateState::kResponded) continue;
    result_.closest.push_back(candidate.peer);
    if (result_.closest.size() >= kReplication) break;
  }
  cb_(std::move(result_));
}

}  // namespace ipfs::dht
