#include "multiformats/multiaddr.h"

#include <array>
#include <charconv>
#include <cstdio>

#include "multiformats/multibase.h"
#include "multiformats/multihash.h"
#include "multiformats/varint.h"

namespace ipfs::multiformats {
namespace {

enum class PayloadKind { kNone, kFixed, kLengthPrefixed };

struct ProtocolSpec {
  MultiaddrProtocol protocol;
  std::string_view name;
  PayloadKind kind;
  std::size_t fixed_bytes;  // for kFixed
};

constexpr std::array<ProtocolSpec, 13> kProtocols = {{
    {MultiaddrProtocol::kIp4, "ip4", PayloadKind::kFixed, 4},
    {MultiaddrProtocol::kTcp, "tcp", PayloadKind::kFixed, 2},
    {MultiaddrProtocol::kIp6, "ip6", PayloadKind::kFixed, 16},
    {MultiaddrProtocol::kDns4, "dns4", PayloadKind::kLengthPrefixed, 0},
    {MultiaddrProtocol::kDns6, "dns6", PayloadKind::kLengthPrefixed, 0},
    {MultiaddrProtocol::kDnsaddr, "dnsaddr", PayloadKind::kLengthPrefixed, 0},
    {MultiaddrProtocol::kUdp, "udp", PayloadKind::kFixed, 2},
    {MultiaddrProtocol::kP2pCircuit, "p2p-circuit", PayloadKind::kNone, 0},
    {MultiaddrProtocol::kP2p, "p2p", PayloadKind::kLengthPrefixed, 0},
    {MultiaddrProtocol::kQuic, "quic", PayloadKind::kNone, 0},
    {MultiaddrProtocol::kQuicV1, "quic-v1", PayloadKind::kNone, 0},
    {MultiaddrProtocol::kWs, "ws", PayloadKind::kNone, 0},
    {MultiaddrProtocol::kWss, "wss", PayloadKind::kNone, 0},
}};

const ProtocolSpec* spec_by_name(std::string_view name) {
  for (const auto& spec : kProtocols)
    if (spec.name == name) return &spec;
  return nullptr;
}

const ProtocolSpec* spec_by_code(std::uint64_t code) {
  for (const auto& spec : kProtocols)
    if (static_cast<std::uint64_t>(spec.protocol) == code) return &spec;
  return nullptr;
}

std::optional<std::vector<std::uint8_t>> parse_ip4(std::string_view text) {
  std::vector<std::uint8_t> out;
  out.reserve(4);
  std::size_t start = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t dot = (i < 3) ? text.find('.', start) : text.size();
    if (dot == std::string_view::npos) return std::nullopt;
    unsigned value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data() + start, text.data() + dot, value);
    if (ec != std::errc{} || ptr != text.data() + dot || value > 255)
      return std::nullopt;
    out.push_back(static_cast<std::uint8_t>(value));
    start = dot + 1;
  }
  return out;
}

std::string ip4_to_string(std::span<const std::uint8_t> bytes) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", bytes[0], bytes[1], bytes[2],
                bytes[3]);
  return buf;
}

// Minimal IPv6 textual parser supporting one "::" compression.
std::optional<std::vector<std::uint8_t>> parse_ip6(std::string_view text) {
  std::vector<std::uint16_t> head;
  std::vector<std::uint16_t> tail;
  bool seen_gap = false;

  auto parse_groups = [](std::string_view part,
                         std::vector<std::uint16_t>& out) -> bool {
    if (part.empty()) return true;
    std::size_t start = 0;
    while (start <= part.size()) {
      const std::size_t colon = part.find(':', start);
      const std::size_t end =
          (colon == std::string_view::npos) ? part.size() : colon;
      unsigned value = 0;
      const auto [ptr, ec] = std::from_chars(part.data() + start,
                                             part.data() + end, value, 16);
      if (ec != std::errc{} || ptr != part.data() + end || value > 0xffff)
        return false;
      out.push_back(static_cast<std::uint16_t>(value));
      if (colon == std::string_view::npos) break;
      start = colon + 1;
    }
    return true;
  };

  const std::size_t gap = text.find("::");
  if (gap != std::string_view::npos) {
    seen_gap = true;
    if (!parse_groups(text.substr(0, gap), head)) return std::nullopt;
    if (!parse_groups(text.substr(gap + 2), tail)) return std::nullopt;
  } else {
    if (!parse_groups(text, head)) return std::nullopt;
  }

  const std::size_t total = head.size() + tail.size();
  if ((seen_gap && total >= 8) || (!seen_gap && total != 8))
    return std::nullopt;

  std::vector<std::uint16_t> groups = head;
  groups.insert(groups.end(), 8 - total, 0);
  groups.insert(groups.end(), tail.begin(), tail.end());

  std::vector<std::uint8_t> out;
  out.reserve(16);
  for (const std::uint16_t g : groups) {
    out.push_back(static_cast<std::uint8_t>(g >> 8));
    out.push_back(static_cast<std::uint8_t>(g & 0xff));
  }
  return out;
}

std::string ip6_to_string(std::span<const std::uint8_t> bytes) {
  // Canonical-enough form: full groups, lowercase hex, no compression.
  std::string out;
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    const unsigned group = (unsigned{bytes[2 * i]} << 8) | bytes[2 * i + 1];
    std::snprintf(buf, sizeof(buf), "%x", group);
    if (i > 0) out.push_back(':');
    out += buf;
  }
  return out;
}

// One component of a packed address: its protocol and a view of its
// payload.
struct Component {
  const ProtocolSpec* spec;
  std::span<const std::uint8_t> value;
};

// Reads the component at the front of `data` and advances `data` past
// it. nullopt if the bytes there are not a well-formed component.
std::optional<Component> next_component(std::span<const std::uint8_t>& data) {
  const auto code = varint_decode(data);
  if (!code) return std::nullopt;
  const ProtocolSpec* spec = spec_by_code(code->value);
  if (spec == nullptr) return std::nullopt;
  data = data.subspan(code->consumed);
  std::uint64_t size = spec->fixed_bytes;
  if (spec->kind == PayloadKind::kLengthPrefixed) {
    const auto length = varint_decode(data);
    if (!length) return std::nullopt;
    data = data.subspan(length->consumed);
    size = length->value;
  }
  if (data.size() < size) return std::nullopt;
  const Component component{spec, data.first(size)};
  data = data.subspan(size);
  return component;
}

std::span<const std::uint8_t> as_bytes(const std::string& packed) {
  return {reinterpret_cast<const std::uint8_t*>(packed.data()), packed.size()};
}

}  // namespace

std::optional<Multiaddr> Multiaddr::parse(std::string_view text) {
  if (text.empty() || text[0] != '/') return std::nullopt;
  std::vector<std::uint8_t> packed;
  packed.reserve(text.size());  // only a compressed ip6 packs longer

  std::size_t pos = 1;
  while (pos <= text.size()) {
    const std::size_t slash = text.find('/', pos);
    const std::size_t end =
        (slash == std::string_view::npos) ? text.size() : slash;
    const std::string_view name = text.substr(pos, end - pos);
    if (name.empty()) {
      if (end == text.size()) break;  // trailing slash
      return std::nullopt;
    }
    const ProtocolSpec* spec = spec_by_name(name);
    if (spec == nullptr) return std::nullopt;

    std::vector<std::uint8_t> payload;
    if (spec->kind != PayloadKind::kNone) {
      if (end == text.size()) return std::nullopt;  // missing value
      const std::size_t value_start = end + 1;
      const std::size_t value_slash = text.find('/', value_start);
      const std::size_t value_end =
          (value_slash == std::string_view::npos) ? text.size() : value_slash;
      const std::string_view value = text.substr(value_start,
                                                 value_end - value_start);
      switch (spec->protocol) {
        case MultiaddrProtocol::kIp4: {
          auto bytes = parse_ip4(value);
          if (!bytes) return std::nullopt;
          payload = std::move(*bytes);
          break;
        }
        case MultiaddrProtocol::kIp6: {
          auto bytes = parse_ip6(value);
          if (!bytes) return std::nullopt;
          payload = std::move(*bytes);
          break;
        }
        case MultiaddrProtocol::kTcp:
        case MultiaddrProtocol::kUdp: {
          unsigned port = 0;
          const auto [ptr, ec] = std::from_chars(
              value.data(), value.data() + value.size(), port);
          if (ec != std::errc{} || ptr != value.data() + value.size() ||
              port > 65535)
            return std::nullopt;
          payload = {static_cast<std::uint8_t>(port >> 8),
                     static_cast<std::uint8_t>(port & 0xff)};
          break;
        }
        case MultiaddrProtocol::kP2p: {
          // PeerIDs render as base58btc multihashes.
          auto bytes = base58btc_decode(value);
          if (!bytes || !Multihash::decode(*bytes)) return std::nullopt;
          payload = std::move(*bytes);
          break;
        }
        default:  // dns names: raw UTF-8 bytes
          payload.assign(value.begin(), value.end());
          break;
      }
      pos = value_end + 1;
    } else {
      pos = end + 1;
    }
    varint_encode(static_cast<std::uint64_t>(spec->protocol), packed);
    if (spec->kind == PayloadKind::kLengthPrefixed)
      varint_encode(payload.size(), packed);
    packed.insert(packed.end(), payload.begin(), payload.end());
    if (end == text.size() ||
        (spec->kind != PayloadKind::kNone && pos > text.size()))
      break;
  }

  if (packed.empty()) return std::nullopt;
  return Multiaddr(std::string(packed.begin(), packed.end()));
}

std::optional<Multiaddr> Multiaddr::decode(
    std::span<const std::uint8_t> data) {
  if (data.empty()) return std::nullopt;
  for (auto rest = data; !rest.empty();)
    if (!next_component(rest)) return std::nullopt;
  return Multiaddr(std::string(data.begin(), data.end()));
}

std::vector<std::uint8_t> Multiaddr::encode() const {
  return {bytes_.begin(), bytes_.end()};
}

// The walks below trust their bytes: only `parse` and `decode` make a
// non-empty address, and both leave well-formed components.
std::string Multiaddr::to_string() const {
  std::string out;
  for (auto rest = as_bytes(bytes_); !rest.empty();) {
    const auto [spec, value] = *next_component(rest);
    out.push_back('/');
    out += spec->name;
    if (spec->kind == PayloadKind::kNone) continue;
    out.push_back('/');
    switch (spec->protocol) {
      case MultiaddrProtocol::kIp4:
        out += ip4_to_string(value);
        break;
      case MultiaddrProtocol::kIp6:
        out += ip6_to_string(value);
        break;
      case MultiaddrProtocol::kTcp:
      case MultiaddrProtocol::kUdp:
        out += std::to_string((unsigned{value[0]} << 8) | value[1]);
        break;
      case MultiaddrProtocol::kP2p:
        out += base58btc_encode(value);
        break;
      default:
        out.append(value.begin(), value.end());
        break;
    }
  }
  return out;
}

std::optional<std::span<const std::uint8_t>> Multiaddr::value_for(
    MultiaddrProtocol protocol) const {
  for (auto rest = as_bytes(bytes_); !rest.empty();) {
    const auto [spec, value] = *next_component(rest);
    if (spec->protocol == protocol) return value;
  }
  return std::nullopt;
}

Multiaddr make_tcp_multiaddr(std::string_view ip4, std::uint16_t port) {
  auto addr = Multiaddr::parse("/ip4/" + std::string(ip4) + "/tcp/" +
                               std::to_string(port));
  return addr ? *addr : Multiaddr{};
}

Multiaddr make_quic_multiaddr(std::string_view ip4, std::uint16_t port) {
  auto addr = Multiaddr::parse("/ip4/" + std::string(ip4) + "/udp/" +
                               std::to_string(port) + "/quic");
  return addr ? *addr : Multiaddr{};
}

}  // namespace ipfs::multiformats
