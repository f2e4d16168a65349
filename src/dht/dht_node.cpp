#include "dht/dht_node.h"

#include <algorithm>

namespace ipfs::dht {

DhtNode::DhtNode(transport::Transport& transport, multiformats::PeerId id,
                 multiformats::AddressList addresses,
                 RecordStore* shared_store, PeerDirectory* shared_directory)
    : transport_(transport),
      self_{std::move(id), transport.local(), std::move(addresses)},
      own_directory_(shared_directory == nullptr
                         ? std::make_unique<PeerDirectory>()
                         : nullptr),
      routing_table_(shared_directory != nullptr ? *shared_directory
                                                 : *own_directory_,
                     Key::for_peer(self_.id)),
      records_(shared_store != nullptr ? shared_store : &own_records_) {}

DhtNode::~DhtNode() {
  republish_timer_.cancel();
  expiry_timer_.cancel();
}

void DhtNode::attach_to_network() {
  transport_.set_request_handler(
      [this](sim::NodeId from, const sim::MessagePtr& message, auto respond) {
        handle_request(from, message, respond);
      });
  transport_.set_message_handler(
      [this](sim::NodeId from, const sim::MessagePtr& message) {
        handle_message(from, message);
      });
}

void DhtNode::force_mode(Mode mode) { mode_ = mode; }

void DhtNode::fix_mode(Mode mode) {
  mode_ = mode;
  fixed_mode_ = mode;
}

void DhtNode::set_bucket_diversity_cap(std::size_t cap) {
  bucket_diversity_cap_ = cap;
  // Rebuild the live table under the new cap. Existing entries re-enter
  // in insertion order, so entries over a newly lowered cap are shed.
  RoutingTable capped(routing_table_.directory(), routing_table_.local_key(),
                      cap);
  for (const auto& peer : routing_table_.all_peers()) capped.upsert(peer);
  routing_table_ = std::move(capped);
}

void DhtNode::answer_closer_peers(const Key& target,
                                  std::vector<PeerRef>& out) const {
  out = routing_table_.closest(target, kReplication);
}

bool DhtNode::handle_request(
    sim::NodeId from, const sim::MessagePtr& message,
    const std::function<void(sim::MessagePtr, std::size_t)>& respond) {
  // Dispatch on the registered message kind (sim/message_kind.h) instead
  // of a dynamic_cast chain: one virtual call per request, which matters
  // on million-peer worlds where DHT serving dominates the event loop.
  const sim::MessageKind kind = message->kind();

  // Clients do not serve DHT requests.
  if (mode_ != Mode::kServer) {
    switch (kind) {
      case sim::MessageKind::kDialBackRequest: {
        // DialBack must still be answered so AutoNAT works for others —
        // but a client cannot help with dial-backs; report unreachable.
        auto response = std::make_shared<DialBackResponse>();
        response->reachable = false;
        respond(std::move(response), kRequestBaseBytes);
        return true;
      }
      case sim::MessageKind::kFindNodeRequest:
      case sim::MessageKind::kGetProvidersRequest:
      case sim::MessageKind::kGetValueRequest:
      case sim::MessageKind::kPutValueRequest:
      case sim::MessageKind::kListBucketsRequest:
        // Politely ignored (the requester times out and moves on).
        return true;
      default:
        return false;
    }
  }

  // Learn about server-mode requesters (the identify-protocol side
  // effect that makes freshly joined servers routable). Exactly the
  // lookup RPCs carry the LookupRequestBase header.
  if (kind == sim::MessageKind::kFindNodeRequest ||
      kind == sim::MessageKind::kGetProvidersRequest ||
      kind == sim::MessageKind::kGetValueRequest) {
    const auto* lookup_request =
        static_cast<const LookupRequestBase*>(message.get());
    if (lookup_request->requester_is_server &&
        !lookup_request->requester.id.empty() &&
        lookup_request->requester.node != sim::kInvalidNode) {
      routing_table_.upsert(lookup_request->requester);
    }
  }

  switch (kind) {
    case sim::MessageKind::kFindNodeRequest: {
      const auto* find_node =
          static_cast<const FindNodeRequest*>(message.get());
      auto response = std::make_shared<FindNodeResponse>();
      answer_closer_peers(find_node->target, response->closer);
      const std::size_t size = response_size_for(response->closer.size());
      respond(std::move(response), size);
      break;
    }
    case sim::MessageKind::kGetProvidersRequest: {
      const auto* get_providers =
          static_cast<const GetProvidersRequest*>(message.get());
      auto response = std::make_shared<GetProvidersResponse>();
      response->providers = records_->providers(
          get_providers->key, transport_.now());
      // Providers come back with their Multiaddress only when this peer
      // still tracks them in its routing table; otherwise the requester
      // has to resolve the PeerID with a second DHT walk (Section 3.2).
      for (auto& record : response->providers) {
        if (!routing_table_.contains(record.provider.id)) {
          record.provider.node = sim::kInvalidNode;
          record.provider.addresses = {};
        }
      }
      answer_closer_peers(get_providers->key, response->closer);
      const std::size_t size = response_size_for(
          response->closer.size() + response->providers.size());
      respond(std::move(response), size);
      break;
    }
    case sim::MessageKind::kPutValueRequest: {
      const auto* put_value =
          static_cast<const PutValueRequest*>(message.get());
      ValueRecord record = put_value->record;
      record.received_at = transport_.now();
      records_->put_value(put_value->key, std::move(record));
      respond(std::make_shared<GetValueResponse>(), kRequestBaseBytes);
      break;
    }
    case sim::MessageKind::kGetValueRequest: {
      const auto* get_value =
          static_cast<const GetValueRequest*>(message.get());
      auto response = std::make_shared<GetValueResponse>();
      response->record = records_->get_value(get_value->key);
      answer_closer_peers(get_value->key, response->closer);
      const std::size_t payload =
          response->record ? response->record->value.size() : 0;
      const std::size_t size =
          response_size_for(response->closer.size(), payload);
      respond(std::move(response), size);
      break;
    }
    case sim::MessageKind::kListBucketsRequest: {
      auto response = std::make_shared<ListBucketsResponse>();
      response->peers = routing_table_.all_peers();
      const std::size_t size = response_size_for(response->peers.size());
      respond(std::move(response), size);
      break;
    }
    case sim::MessageKind::kDialBackRequest: {
      // AutoNAT: try to dial the requester back on a fresh connection.
      const bool already_connected = transport_.connected(from);
      if (already_connected) {
        // The inbound connection proves nothing about reachability; a
        // real implementation dials a fresh address. Approximate with a
        // dial attempt that honours the requester's dialability.
        auto response = std::make_shared<DialBackResponse>();
        response->reachable = transport_.peer_dialable(from);
        respond(std::move(response), kRequestBaseBytes);
      } else {
        transport_.connect(
            from, [this, from, respond](bool ok, sim::Duration) {
              auto response = std::make_shared<DialBackResponse>();
              response->reachable = ok;
              respond(std::move(response), kRequestBaseBytes);
              if (ok) transport_.disconnect(from);
            });
      }
      break;
    }
    default:
      return false;
  }

  return true;
}

bool DhtNode::handle_message(sim::NodeId from, const sim::MessagePtr& message) {
  // ADD_PROVIDER arrives as a fire-and-forget datagram (Section 3.1).
  if (message->kind() == sim::MessageKind::kAddProviderRequest) {
    const auto* add_provider =
        static_cast<const AddProviderRequest*>(message.get());
    if (mode_ == Mode::kServer) {
      ProviderRecord record{add_provider->provider,
                            transport_.now()};
      records_->add_provider(add_provider->key, std::move(record));
      if (!expiry_timer_.active()) schedule_expiry_sweep();
      transport_.metrics().counter("dht.provider_records_stored").inc();
    }
    (void)from;
    return true;
  }
  return false;
}

LookupHost DhtNode::make_lookup_host() {
  LookupHost host;
  host.transport = &transport_;
  host.self_ref = self_;
  host.server_mode = mode_ == Mode::kServer;
  host.provider_quorum = provider_quorum_;
  host.on_peer_responded = [this](const PeerRef& peer) {
    routing_table_.upsert(peer);
  };
  host.on_peer_failed = [this](const PeerRef& peer) {
    // Evict peers that fail to answer so the table self-heals under churn.
    routing_table_.remove(peer.id);
  };
  return host;
}

const Lookup* DhtNode::start_lookup(
    LookupType type, const Key& target, std::vector<PeerRef> seeds,
    Lookup::Callback cb, std::optional<multiformats::PeerId> target_peer,
    metrics::SpanId parent_span) {
  auto wrapped = [this, cb = std::move(cb)](LookupResult result) {
    cb(std::move(result));
  };
  LookupHost host = make_lookup_host();
  host.parent_span = parent_span;
  auto lookup = Lookup::start(std::move(host), type, target,
                              std::move(seeds), std::move(wrapped),
                              std::move(target_peer));
  // Keep it alive until its callback has fired. The cleanup daemon
  // verifies it is erasing the lookup it was scheduled for: after a
  // cancel_lookup() the allocator may reuse the address for a younger
  // walk, and blindly erasing by pointer would drop that walk's only
  // keep-alive mid-flight (its completion callback would never fire).
  active_lookups_[lookup.get()] = lookup;
  transport_.schedule_daemon_after(
      kLookupDeadline + sim::seconds(1),
      [this, raw = lookup.get(), weak = std::weak_ptr<Lookup>(lookup)] {
        const auto it = active_lookups_.find(raw);
        if (it != active_lookups_.end() && it->second == weak.lock())
          active_lookups_.erase(it);
      });
  return lookup.get();
}

void DhtNode::cancel_lookup(const Lookup* handle) {
  const auto it = active_lookups_.find(handle);
  if (it == active_lookups_.end()) return;
  it->second->abort();
  // The daemon cleanup scheduled at start_lookup finds nothing: erasing
  // a missing key is harmless.
  active_lookups_.erase(it);
}

void DhtNode::run_autonat(std::vector<PeerRef> probes,
                          std::function<void()> done) {
  if (probes.size() > static_cast<std::size_t>(kAutonatProbes))
    probes.resize(kAutonatProbes);
  auto state = std::make_shared<std::pair<int, int>>(0, 0);  // done, reachable
  const int total = static_cast<int>(probes.size());
  if (total == 0) {
    done();
    return;
  }
  auto finish_one = [this, state, total, done](bool reachable) {
    ++state->first;
    if (reachable) ++state->second;
    if (state->first == total) {
      mode_ = fixed_mode_.value_or(
          state->second > kAutonatThreshold ? Mode::kServer : Mode::kClient);
      done();
    }
  };
  for (const auto& probe : probes) {
    transport_.request(
        probe.node, std::make_shared<DialBackRequest>(), kRequestBaseBytes,
        kRpcTimeout,
        [finish_one](sim::RpcStatus status, const sim::MessagePtr& message) {
          if (status != sim::RpcStatus::kOk) {
            finish_one(false);
            return;
          }
          finish_one(
              message->kind() == sim::MessageKind::kDialBackResponse &&
              static_cast<const DialBackResponse*>(message.get())->reachable);
        });
  }
}

void DhtNode::bootstrap(std::vector<PeerRef> seeds,
                        std::function<void(bool)> done) {
  auto state = std::make_shared<std::pair<int, std::vector<PeerRef>>>();
  const int total = static_cast<int>(seeds.size());
  if (total == 0) {
    done(false);
    return;
  }

  auto after_connections = [this, done = std::move(done)](
                               std::vector<PeerRef> connected) {
    if (connected.empty()) {
      done(false);
      return;
    }
    for (const auto& peer : connected) routing_table_.upsert(peer);
    run_autonat(connected, [this, connected, done] {
      // Self-lookup to populate the routing table (standard Kademlia join).
      start_lookup(LookupType::kFindNode, routing_table_.local_key(),
                   connected, [done](LookupResult result) {
                     done(!result.closest.empty());
                   });
    });
  };

  for (const auto& seed : seeds) {
    transport_.connect(
        seed.node,
        [state, total, seed, after_connections](bool ok, sim::Duration) {
          if (ok) state->second.push_back(seed);
          if (++state->first == total) after_connections(state->second);
        });
  }
}

void DhtNode::handle_crash() {
  for (auto& [raw, lookup] : active_lookups_) lookup->abort();
  active_lookups_.clear();
  routing_table_ = RoutingTable(routing_table_.directory(),
                                routing_table_.local_key(),
                                bucket_diversity_cap_);
  republish_timer_.cancel();
  expiry_timer_.cancel();
}

void DhtNode::handle_restart() {
  republish_timer_.cancel();
  expiry_timer_.cancel();
  records_->expire_providers(transport_.now());
  if (records_->provider_key_count() > 0) schedule_expiry_sweep();
  if (!reprovide_keys_.empty()) schedule_republish();
}

void DhtNode::store_provider_records(
    const Key& key, std::vector<PeerRef> targets,
    std::function<void(StoreBatchResult)> done) {
  const sim::Time start = transport_.now();
  auto result = std::make_shared<StoreBatchResult>();
  result->attempted = static_cast<int>(targets.size());
  if (targets.empty()) {
    done(*result);
    return;
  }

  // Fire-and-forget ADD_PROVIDER to each target. Every dial starts at
  // once (a batch holds at most k = 20 targets), and the batch is complete
  // when every dial has either delivered the record or given up, so it
  // lasts as long as its slowest dial: a target behind a dial timeout
  // holds it for 5 s or 45 s (Figure 9c's tail).
  auto remaining = std::make_shared<int>(result->attempted);
  for (const PeerRef& peer : targets) {
    transport_.connect(peer.node, [this, key, peer, result, remaining, start,
                                   done](bool ok, sim::Duration) {
      if (ok) {
        auto add = std::make_shared<AddProviderRequest>();
        add->key = key;
        add->provider = self_;
        transport_.send(peer.node, std::move(add),
                        kRequestBaseBytes + kPeerRefBytes);
        ++result->sent;
        transport_.metrics().counter("dht.add_provider_sent").inc();
      }
      if (--*remaining == 0) {
        result->elapsed = transport_.now() - start;
        done(*result);
      }
    });
  }
}

void DhtNode::provide(const Key& key, std::function<void(ProvideResult)> done) {
  const sim::Time start = transport_.now();
  const auto seeds = routing_table_.closest(key, kReplication);

  start_lookup(
      LookupType::kFindNode, key, seeds,
      [this, key, start, done = std::move(done)](LookupResult walk) {
        const sim::Time walk_end = transport_.now();
        auto result = std::make_shared<ProvideResult>();
        result->walk = walk_end - start;
        result->walk_result = walk;
        result->stores_attempted = static_cast<int>(walk.closest.size());

        if (walk.closest.empty()) {
          result->total = result->walk;
          done(*result);
          return;
        }

        store_provider_records(
            key, walk.closest, [result, done](StoreBatchResult batch) {
              result->rpc_batch = batch.elapsed;
              result->stores_sent = batch.sent;
              result->total = result->walk + result->rpc_batch;
              result->ok = batch.sent > 0;
              done(*result);
            });
      });
}

void DhtNode::start_reproviding(const Key& key) {
  reprovide_keys_.insert(key);
  if (!republish_timer_.active()) schedule_republish();
}

void DhtNode::stop_reproviding(const Key& key) { reprovide_keys_.erase(key); }

void DhtNode::schedule_republish() {
  republish_timer_ =
      transport_.schedule_daemon_after(kRepublishInterval, [this] {
        if (transport_.online()) {
          for (const auto& key : reprovide_keys_) {
            provide(key, [](ProvideResult) {});
            // Re-advertise through the hook (network indexers): indexer
            // state wiped by a crash is rebuilt on the republish cadence.
            if (republish_hook_) republish_hook_(key);
          }
        }
        schedule_republish();
      });
}

void DhtNode::schedule_expiry_sweep() {
  expiry_timer_ =
      transport_.schedule_daemon_after(kExpirySweepInterval, [this] {
        records_->expire_providers(transport_.now());
        if (records_->provider_key_count() > 0) schedule_expiry_sweep();
      });
}

const Lookup* DhtNode::find_providers(const Key& key, Lookup::Callback done,
                                      metrics::SpanId parent_span) {
  return start_lookup(LookupType::kGetProviders, key,
                      routing_table_.closest(key, kReplication),
                      std::move(done), std::nullopt, parent_span);
}

void DhtNode::find_peer(
    const multiformats::PeerId& peer,
    std::function<void(std::optional<PeerRef>, LookupResult)> done,
    metrics::SpanId parent_span) {
  const Key target = Key::for_peer(peer);
  start_lookup(
      LookupType::kFindNode, target, routing_table_.closest(target, kReplication),
      [done = std::move(done)](LookupResult result) {
        auto target = result.target_peer;
        done(std::move(target), std::move(result));
      },
      peer, parent_span);
}

void DhtNode::lookup_closest(const Key& key, Lookup::Callback done,
                             metrics::SpanId parent_span) {
  start_lookup(LookupType::kFindNode, key,
               routing_table_.closest(key, kReplication), std::move(done),
               std::nullopt, parent_span);
}

void DhtNode::put_value(const Key& key, ValueRecord record,
                        std::function<void(bool, int)> done) {
  start_lookup(
      LookupType::kFindNode, key, routing_table_.closest(key, kReplication),
      [this, key, record = std::move(record),
       done = std::move(done)](LookupResult walk) {
        if (walk.closest.empty()) {
          done(false, 0);
          return;
        }
        auto stored = std::make_shared<int>(0);
        auto remaining =
            std::make_shared<int>(static_cast<int>(walk.closest.size()));
        for (const auto& peer : walk.closest) {
          transport_.connect(
              peer.node,
              [this, key, record, peer, stored, remaining,
               done](bool ok, sim::Duration) {
                auto finish = [stored, remaining, done] {
                  if (--*remaining == 0) done(*stored > 0, *stored);
                };
                if (!ok) {
                  finish();
                  return;
                }
                auto put = std::make_shared<PutValueRequest>();
                put->key = key;
                put->record = record;
                transport_.request(
                    peer.node, std::move(put),
                    kRequestBaseBytes + record.value.size(), kRpcTimeout,
                    [stored, finish](sim::RpcStatus status,
                                     const sim::MessagePtr&) {
                      if (status == sim::RpcStatus::kOk) ++*stored;
                      finish();
                    });
              });
        }
      });
}

void DhtNode::get_values(const Key& key,
                         std::function<void(std::vector<ValueRecord>)> done) {
  start_lookup(LookupType::kGetValue, key,
               routing_table_.closest(key, kReplication),
               [done = std::move(done)](LookupResult result) {
                 done(std::move(result.values));
               });
}

}  // namespace ipfs::dht
