#include "ipns/ipns.h"

#include <cstring>

#include "multiformats/varint.h"

namespace ipfs::ipns {
namespace {

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_u64(std::span<const std::uint8_t> in) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

}  // namespace

std::vector<std::uint8_t> IpnsRecord::signed_payload() const {
  constexpr std::string_view kDomain = "ipns-record:";  // domain separation
  std::vector<std::uint8_t> payload;
  payload.reserve(kDomain.size() + value.size() + 16);
  payload.assign(kDomain.begin(), kDomain.end());
  payload.insert(payload.end(), value.begin(), value.end());
  put_u64(payload, sequence);
  put_u64(payload, validity_us);
  return payload;
}

IpnsRecord IpnsRecord::create(const crypto::Ed25519KeyPair& keypair,
                              const multiformats::Cid& target,
                              std::uint64_t sequence, sim::Duration validity) {
  IpnsRecord record;
  const std::string path = "/ipfs/" + target.to_string();
  record.value.assign(path.begin(), path.end());
  record.sequence = sequence;
  record.validity_us = static_cast<std::uint64_t>(validity);
  record.public_key = keypair.public_key;
  record.signature = crypto::ed25519_sign(keypair, record.signed_payload());
  return record;
}

std::vector<std::uint8_t> IpnsRecord::encode() const {
  std::vector<std::uint8_t> out;
  multiformats::varint_encode(value.size(), out);
  out.insert(out.end(), value.begin(), value.end());
  put_u64(out, sequence);
  put_u64(out, validity_us);
  out.insert(out.end(), public_key.begin(), public_key.end());
  out.insert(out.end(), signature.begin(), signature.end());
  return out;
}

std::optional<IpnsRecord> IpnsRecord::decode(
    std::span<const std::uint8_t> data) {
  const auto length = multiformats::varint_decode(data);
  if (!length) return std::nullopt;
  data = data.subspan(length->consumed);
  if (data.size() != length->value + 16 + 32 + 64) return std::nullopt;

  IpnsRecord record;
  record.value.assign(data.begin(), data.begin() + length->value);
  data = data.subspan(length->value);
  record.sequence = get_u64(data);
  record.validity_us = get_u64(data.subspan(8));
  data = data.subspan(16);
  std::memcpy(record.public_key.data(), data.data(), 32);
  std::memcpy(record.signature.data(), data.data() + 32, 64);
  return record;
}

bool IpnsRecord::verify(const multiformats::PeerId& name) const {
  // Self-certification: the embedded key must hash to the name.
  if (multiformats::PeerId::from_public_key(public_key) != name) return false;
  return crypto::ed25519_verify(public_key, signed_payload(), signature);
}

std::optional<multiformats::Cid> IpnsRecord::target() const {
  const std::string path(value.begin(), value.end());
  if (!path.starts_with("/ipfs/")) return std::nullopt;
  return multiformats::Cid::parse(path.substr(6));
}

dht::Key ipns_key(const multiformats::PeerId& name) {
  return dht::Key::for_peer(name);
}

void publish(dht::DhtNode& dht, const crypto::Ed25519KeyPair& keypair,
             const multiformats::Cid& target, std::uint64_t sequence,
             std::function<void(bool, int)> done) {
  const IpnsRecord record = IpnsRecord::create(keypair, target, sequence);
  dht::ValueRecord wrapped;
  wrapped.value = record.encode();
  wrapped.sequence = sequence;
  const auto name = multiformats::PeerId::from_public_key(keypair.public_key);
  dht.put_value(ipns_key(name), std::move(wrapped), std::move(done));
}

std::optional<IpnsRecord> select_record(
    const multiformats::PeerId& name,
    const std::vector<dht::ValueRecord>& values) {
  std::optional<IpnsRecord> best;
  for (const auto& value : values) {
    const auto record = IpnsRecord::decode(value.value);
    if (!record || !record->verify(name)) continue;  // forged or corrupt
    if (!best || record->sequence > best->sequence) best = record;
  }
  return best;
}

void resolve(dht::DhtNode& dht, const multiformats::PeerId& name,
             std::function<void(std::optional<multiformats::Cid>)> done) {
  // Quorum semantics (go-ipfs): gather up to dht::kValueQuorum records —
  // stale replicas holding superseded sequences are expected — then pick
  // the highest sequence among the *valid* ones. Validity is checked
  // here, not in the DHT walk, because it needs the IPNS signature.
  dht.get_values(ipns_key(name), [name, done = std::move(done)](
                                     std::vector<dht::ValueRecord> values) {
    const auto best = select_record(name, values);
    done(best ? best->target() : std::nullopt);
  });
}

}  // namespace ipfs::ipns
