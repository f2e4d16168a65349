// Multiaddresses (paper Section 2.2, Figure 2): self-describing,
// hierarchical peer addresses such as /ip4/1.2.3.4/tcp/3333/p2p/QmZyWQ14...
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ipfs::multiformats {

enum class MultiaddrProtocol : std::uint64_t {
  kIp4 = 0x04,
  kTcp = 0x06,
  kIp6 = 0x29,
  kDns4 = 0x36,
  kDns6 = 0x37,
  kDnsaddr = 0x38,
  kUdp = 0x0111,
  kP2pCircuit = 0x0122,
  kP2p = 0x01a5,
  kQuic = 0x01cc,
  kQuicV1 = 0x01cd,
  kWs = 0x01dd,
  kWss = 0x01de,
};

// An address is its packed binary form and nothing else: the bytes
// `encode()` returns, each component a varint protocol code followed by
// its payload. Addresses are copied with every PeerRef that flows
// through DHT replies and crawl results. A `std::string` holds the
// bytes because short addresses stay in its inline buffer, so a copy
// neither allocates nor touches a refcount; /ip4/…/tcp/… packs to 8
// bytes. Longer ones (ip6, dns, /p2p/…) allocate like any string. A
// plain vector of components would add two or three allocations to
// every copied address: the vector and each payload.
class Multiaddr {
 public:
  Multiaddr() = default;

  // Parses the human-readable path form. nullopt on any malformed segment.
  static std::optional<Multiaddr> parse(std::string_view text);

  // Parses the packed binary form. nullopt unless `data` is one or more
  // well-formed components.
  static std::optional<Multiaddr> decode(std::span<const std::uint8_t> data);

  std::vector<std::uint8_t> encode() const;
  std::string to_string() const;

  bool empty() const { return bytes_.empty(); }

  // First component payload for `protocol`, if present, as a view into
  // this address.
  std::optional<std::span<const std::uint8_t>> value_for(
      MultiaddrProtocol protocol) const;

  // `parse` and `decode` produce canonical bytes (varints are minimal),
  // so equal addresses have equal bytes.
  bool operator==(const Multiaddr&) const = default;

 private:
  explicit Multiaddr(std::string bytes) : bytes_(std::move(bytes)) {}

  std::string bytes_;
};

// Convenience constructors used across the simulator.
Multiaddr make_tcp_multiaddr(std::string_view ip4, std::uint16_t port);
Multiaddr make_quic_multiaddr(std::string_view ip4, std::uint16_t port);

}  // namespace ipfs::multiformats
