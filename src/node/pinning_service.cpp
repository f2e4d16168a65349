#include "node/pinning_service.h"

namespace ipfs::node {

void PinningService::announce(const Cid& cid,
                              std::function<void(PinResult)> done) {
  node_.provide(cid, [this, cid, done = std::move(done)](PublishTrace trace) {
    PinResult result;
    result.ok = trace.ok;
    result.cid = cid;
    result.publish_time = trace.total;
    result.provider_records = trace.provider_records_sent;
    if (trace.ok) ++pinned_;
    done(result);
  });
}

void PinningService::pin_bytes(std::span<const std::uint8_t> data,
                               std::function<void(PinResult)> done) {
  const auto import = node_.add(data);  // add() pins the root
  announce(import.root, std::move(done));
}

void PinningService::pin_cid(const Cid& cid,
                             std::function<void(PinResult)> done) {
  // Already local (e.g. pinned earlier): just (re)announce.
  if (merkledag::content_size(node_.store(), cid).has_value()) {
    node_.store().pin(cid);
    announce(cid, std::move(done));
    return;
  }
  node_.retrieve(cid, [this, cid, done = std::move(done)](
                          RetrievalTrace trace) {
    if (!trace.ok) {
      PinResult result;
      result.cid = cid;
      done(result);
      return;
    }
    node_.store().pin(cid);
    announce(cid, std::move(done));
  });
}

void PinningService::unpin(const Cid& cid) {
  node_.store().unpin(cid);
  node_.dht().stop_reproviding(dht::Key::for_cid(cid));
  if (pinned_ > 0) --pinned_;
}

}  // namespace ipfs::node
