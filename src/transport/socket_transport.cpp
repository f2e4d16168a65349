#include "transport/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "transport/codec.h"

namespace ipfs::transport {
namespace {

constexpr std::uint32_t kMagic = 0x53465049;  // "IPFS" little-endian
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 22;
// Largest UDP payload over IPv4 minus our header.
constexpr std::size_t kMaxPayload = 65507 - kHeaderBytes;
constexpr sim::Duration kDialTimeout = sim::seconds(5);

enum Kind : std::uint8_t {
  kDatagram = 0,
  kRequest = 1,
  kResponse = 2,
  kConnect = 3,
  kConnectAck = 4,
  kDisconnect = 5,
};

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// One clock epoch per process so several transports in one process (the
// parity test) agree on `now`.
sim::Time wall_now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

SocketTransport::SocketTransport(PeerAddr local, const std::string& bind_ip,
                                 std::uint16_t port)
    : local_(local), metrics_([] { return wall_now(); }) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("SocketTransport: socket() failed");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("SocketTransport: bad bind address " + bind_ip);
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd_);
    throw std::runtime_error("SocketTransport: bind() failed on " + bind_ip +
                             ":" + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketTransport::add_peer(PeerAddr peer, const std::string& ip,
                               std::uint16_t port) {
  Endpoint ep;
  in_addr parsed{};
  if (::inet_pton(AF_INET, ip.c_str(), &parsed) != 1) {
    throw std::runtime_error("SocketTransport: bad peer address " + ip);
  }
  ep.ip = parsed.s_addr;
  ep.port = htons(port);
  peers_[peer] = ep;
}

sim::Time SocketTransport::now() const { return wall_now(); }

// --- Timers ----------------------------------------------------------------

// The core never schedules into the past, so every time is clamped to the
// wall clock, which is never behind the core's own.
Timer SocketTransport::schedule_after(sim::Duration delay,
                                      std::function<void()> fn) {
  return sim_.schedule_at(now() + std::max<sim::Duration>(delay, 0),
                          std::move(fn));
}

Timer SocketTransport::schedule_daemon_after(sim::Duration delay,
                                             std::function<void()> fn) {
  return sim_.schedule_daemon_at(now() + std::max<sim::Duration>(delay, 0),
                                 std::move(fn));
}

Timer SocketTransport::schedule_daemon_at(sim::Time when,
                                          std::function<void()> fn) {
  return sim_.schedule_daemon_at(std::max(when, now()), std::move(fn));
}

// --- Connections -----------------------------------------------------------

void SocketTransport::connect(PeerAddr peer, sim::DialCallback cb) {
  if (connected(peer)) {
    schedule_after(0, [cb = std::move(cb)] { cb(true, 0); });
    return;
  }
  if (peers_.find(peer) == peers_.end()) {
    schedule_after(0, [cb = std::move(cb)] { cb(false, 0); });
    return;
  }
  const sim::Time started = now();
  Timer timeout = schedule_after(
      kDialTimeout, [this, peer] { complete_dials(peer, false); });
  dials_[peer].push_back(
      PendingDial{std::move(cb), started, std::move(timeout)});
  send_frame(kConnect, peer, 0, {});
}

void SocketTransport::disconnect(PeerAddr peer) {
  if (connected_.erase(peer) == 0) return;
  if (peers_.find(peer) != peers_.end()) send_frame(kDisconnect, peer, 0, {});
}

bool SocketTransport::connected(PeerAddr peer) const {
  return connected_.contains(peer);
}

std::vector<PeerAddr> SocketTransport::connections() const {
  return {connected_.begin(), connected_.end()};
}

bool SocketTransport::peer_dialable(PeerAddr peer) const {
  return peers_.find(peer) != peers_.end();
}

int SocketTransport::handshake_round_trips(PeerAddr) const {
  // One round trip: connect / connect-ack.
  return 1;
}

void SocketTransport::complete_dials(PeerAddr peer, bool ok) {
  auto it = dials_.find(peer);
  if (it == dials_.end()) return;
  std::vector<PendingDial> pending = std::move(it->second);
  dials_.erase(it);
  for (auto& dial : pending) dial.timeout.cancel();
  const sim::Time now_us = now();
  for (auto& dial : pending) {
    if (dial.cb) dial.cb(ok, now_us - dial.started);
  }
}

// --- Messaging -------------------------------------------------------------

void SocketTransport::send_frame(std::uint8_t kind, PeerAddr to,
                                 std::uint64_t request_id,
                                 const std::vector<std::uint8_t>& payload) {
  auto it = peers_.find(to);
  if (it == peers_.end() || payload.size() > kMaxPayload) {
    metrics_.counter("transport.tx.dropped").inc();
    return;
  }
  std::vector<std::uint8_t> frame(kHeaderBytes + payload.size());
  put_u32(frame.data(), kMagic);
  frame[4] = kVersion;
  frame[5] = kind;
  put_u32(frame.data() + 6, static_cast<std::uint32_t>(local_));
  put_u64(frame.data() + 10, request_id);
  put_u32(frame.data() + 18, static_cast<std::uint32_t>(payload.size()));
  // Control frames carry no payload, and an empty vector's data() may be
  // null, which memcpy must not be given.
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = it->second.ip;
  addr.sin_port = it->second.port;
  ::sendto(fd_, frame.data(), frame.size(), 0,
           reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (kind == kDatagram || kind == kRequest || kind == kResponse) {
    metrics_.counter("transport.tx.messages").inc();
    metrics_.counter("transport.tx.bytes").inc(frame.size());
  }
}

void SocketTransport::send(PeerAddr to, sim::MessagePtr message,
                           std::size_t /*bytes*/) {
  auto payload = encode_message(*message);
  if (!payload) {
    metrics_.counter("transport.tx.dropped").inc();
    return;
  }
  send_frame(kDatagram, to, 0, *payload);
}

void SocketTransport::request(PeerAddr to, sim::MessagePtr request,
                              std::size_t /*request_bytes*/,
                              sim::Duration timeout, sim::ResponseCallback cb) {
  if (peers_.find(to) == peers_.end()) {
    schedule_after(0, [cb = std::move(cb)] {
      cb(sim::RpcStatus::kUnreachable, nullptr);
    });
    return;
  }
  auto payload = encode_message(*request);
  if (!payload) {
    schedule_after(
        0, [cb = std::move(cb)] { cb(sim::RpcStatus::kReset, nullptr); });
    return;
  }
  const std::uint64_t id = next_request_id_++;
  // A response cancels this timer, so it only runs while `id` is pending.
  Timer expiry = schedule_after(timeout, [this, id] {
    auto node = requests_.extract(id);
    node.mapped().cb(sim::RpcStatus::kTimeout, nullptr);
  });
  requests_.emplace(id, PendingRequest{std::move(cb), std::move(expiry)});
  send_frame(kRequest, to, id, *payload);
}

void SocketTransport::set_request_handler(sim::RequestHandler handler) {
  request_handler_ = std::move(handler);
}

void SocketTransport::set_message_handler(sim::MessageHandler handler) {
  message_handler_ = std::move(handler);
}

// --- Event loop ------------------------------------------------------------

void SocketTransport::dispatch(const std::uint8_t* data, std::size_t len,
                               const Endpoint& source) {
  if (len < kHeaderBytes) return;
  if (get_u32(data) != kMagic || data[4] != kVersion) return;
  const std::uint8_t kind = data[5];
  const PeerAddr from = static_cast<PeerAddr>(get_u32(data + 6));
  const std::uint64_t request_id = get_u64(data + 10);
  const std::size_t payload_len = get_u32(data + 18);
  if (payload_len != len - kHeaderBytes) return;
  const std::span<const std::uint8_t> payload(data + kHeaderBytes,
                                              payload_len);

  // Learn the sender's endpoint so replies and later dials work without
  // pre-registration (a daemon only needs bootstrap entries).
  if (peers_.find(from) == peers_.end()) peers_[from] = source;

  switch (kind) {
    case kConnect:
      connected_.insert(from);
      send_frame(kConnectAck, from, 0, {});
      break;
    case kConnectAck:
      connected_.insert(from);
      complete_dials(from, true);
      break;
    case kDisconnect:
      connected_.erase(from);
      break;
    case kDatagram: {
      if (!message_handler_) break;
      sim::MessagePtr message = decode_message(payload);
      if (!message) break;
      metrics_.counter("transport.rx.messages").inc();
      metrics_.counter("transport.rx.bytes").inc(len);
      message_handler_(from, message);
      break;
    }
    case kRequest: {
      if (!request_handler_) break;
      sim::MessagePtr message = decode_message(payload);
      if (!message) break;
      metrics_.counter("transport.rx.messages").inc();
      metrics_.counter("transport.rx.bytes").inc(len);
      request_handler_(
          from, message,
          [this, from, request_id](sim::MessagePtr response,
                                   std::size_t /*bytes*/) {
            auto encoded = encode_message(*response);
            if (!encoded) {
              metrics_.counter("transport.tx.dropped").inc();
              return;
            }
            send_frame(kResponse, from, request_id, *encoded);
          });
      break;
    }
    case kResponse: {
      auto it = requests_.find(request_id);
      if (it == requests_.end()) break;  // late: timeout already fired
      it->second.timeout.cancel();
      sim::ResponseCallback cb = std::move(it->second.cb);
      requests_.erase(it);
      sim::MessagePtr message = decode_message(payload);
      if (!message) {
        cb(sim::RpcStatus::kReset, nullptr);
        break;
      }
      metrics_.counter("transport.rx.messages").inc();
      metrics_.counter("transport.rx.bytes").inc(len);
      cb(sim::RpcStatus::kOk, message);
      break;
    }
    default:
      break;
  }
}

bool SocketTransport::poll_once(sim::Duration max_wait) {
  sim::Time wake = now() + std::max<sim::Duration>(max_wait, 0);
  const sim::Time next = sim_.next_event_time();
  if (next >= 0 && next < wake) wake = next;

  const sim::Time wait_us = std::max<sim::Time>(wake - now(), 0);
  pollfd pfd{fd_, POLLIN, 0};
  const int timeout_ms = static_cast<int>((wait_us + 999) / 1000);
  const int ready = ::poll(&pfd, 1, timeout_ms);

  bool did_work = false;
  if (ready > 0 && (pfd.revents & POLLIN) != 0) {
    std::uint8_t buffer[65536];
    for (;;) {
      sockaddr_in src{};
      socklen_t src_len = sizeof(src);
      const ssize_t n =
          ::recvfrom(fd_, buffer, sizeof(buffer), 0,
                     reinterpret_cast<sockaddr*>(&src), &src_len);
      if (n < 0) break;  // EWOULDBLOCK: drained
      Endpoint source{src.sin_addr.s_addr, src.sin_port};
      dispatch(buffer, static_cast<std::size_t>(n), source);
      did_work = true;
    }
  }

  // Events a callback schedules for a time the clock has already passed
  // run in this same pass; the chain ends once the clock ticks past it.
  const bool fired = sim_.run_until(now()) > 0;
  return did_work || fired;
}

}  // namespace ipfs::transport
