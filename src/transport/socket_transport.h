// Real-socket Transport backend: UDP datagrams on a poll(2) event loop.
//
// Where SimTransport delegates to the discrete-event fabric, this backend
// moves the same protocol messages between actual processes: each message
// is serialized with transport/codec.h and shipped as one UDP datagram
// with a fixed 22-byte frame header. A static peer table (add_peer) maps
// PeerAddr values to UDP endpoints — the multi-process examples/ipfsd
// cluster assigns node index i the address i, so the sim-era NodeId keeps
// working as the peer identity on the wire.
//
// Frame layout (little-endian):
//
//   [magic u32 "IPFS"][version u8][kind u8][from u32]
//   [request_id u64][payload_len u32][payload...]
//
// Kinds: datagram (send), request / response (request), and the
// connect / connect-ack / disconnect control frames backing the
// Transport connection surface. Payloads are codec encodings; control
// frames carry none. One message per datagram caps payloads at ~64 KiB,
// comfortably above every protocol message this codebase emits (blocks
// are ≤ 256 KiB chunks only in theory; the repo's scenarios move blocks
// well under the limit — oversized sends are dropped and counted).
//
// Threading model: none. The owner drives the loop explicitly via
// poll_once() from a single thread. Timers, RPC timeouts and dial
// timeouts are events on one sim::Simulator, scheduled at wall-clock
// times and run inside poll_once. This keeps the backend steppable from
// tests (tests/transport_parity_test.cpp runs several instances in one
// process and round-robins their loops).
//
// Lifetime: a SocketTransport must outlive every object that holds one
// of its foreground timers, as a sim::Simulator must, because cancelling
// one updates the core's pending count.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "transport/transport.h"

namespace ipfs::transport {

class SocketTransport final : public Transport {
 public:
  // Binds a UDP socket on bind_ip:port (port 0 picks an ephemeral port;
  // read it back with port()). Throws std::runtime_error when the socket
  // cannot be created or bound.
  SocketTransport(PeerAddr local, const std::string& bind_ip,
                  std::uint16_t port);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Registers `peer`'s UDP endpoint. Dials and sends to unregistered
  // peers fail (kUnreachable / dropped); inbound frames from unknown
  // peers auto-register the sender's source endpoint, so a cluster only
  // needs bootstrap entries to converge.
  void add_peer(PeerAddr peer, const std::string& ip, std::uint16_t port);

  // --- Event loop ---------------------------------------------------------

  // Waits up to `max_wait` for a readable socket or the core's next
  // event, then drains every pending datagram and runs every event due
  // by the wall clock, including ones those events schedule for a time
  // already passed. Returns true when any datagram, timer, timeout or
  // dial completion was processed.
  bool poll_once(sim::Duration max_wait);
  // True when nothing foreground is outstanding: no pending requests, no
  // in-flight dials, no non-daemon timers. (Daemon timers — periodic
  // maintenance — intentionally do not count, mirroring the simulator's
  // run-until-idle semantics.)
  bool idle() const { return sim_.foreground_pending() == 0; }

  std::uint16_t port() const { return port_; }

  // --- Transport interface ------------------------------------------------

  PeerAddr local() const override { return local_; }
  bool online() const override { return true; }
  sim::Time now() const override;
  Timer schedule_after(sim::Duration delay, std::function<void()> fn) override;
  Timer schedule_daemon_after(sim::Duration delay,
                              std::function<void()> fn) override;
  Timer schedule_daemon_at(sim::Time when, std::function<void()> fn) override;
  void connect(PeerAddr peer, sim::DialCallback cb) override;
  void disconnect(PeerAddr peer) override;
  bool connected(PeerAddr peer) const override;
  std::vector<PeerAddr> connections() const override;
  bool peer_dialable(PeerAddr peer) const override;
  int handshake_round_trips(PeerAddr peer) const override;
  void send(PeerAddr to, sim::MessagePtr message, std::size_t bytes) override;
  void request(PeerAddr to, sim::MessagePtr request, std::size_t request_bytes,
               sim::Duration timeout, sim::ResponseCallback cb) override;
  void set_request_handler(sim::RequestHandler handler) override;
  void set_message_handler(sim::MessageHandler handler) override;
  metrics::Registry& metrics() override { return metrics_; }

 private:
  struct Endpoint {
    std::uint32_t ip = 0;    // network byte order
    std::uint16_t port = 0;  // network byte order
  };
  struct PendingRequest {
    sim::ResponseCallback cb;
    Timer timeout;
  };
  struct PendingDial {
    sim::DialCallback cb;
    sim::Time started = 0;
    Timer timeout;
  };

  void send_frame(std::uint8_t kind, PeerAddr to, std::uint64_t request_id,
                  const std::vector<std::uint8_t>& payload);
  void dispatch(const std::uint8_t* data, std::size_t len,
                const Endpoint& source);
  // Completes every pending dial to `peer` and cancels their timeouts.
  void complete_dials(PeerAddr peer, bool ok);

  PeerAddr local_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  metrics::Registry metrics_;

  // Every timer, RPC timeout and dial timeout, due at wall-clock times.
  sim::Simulator sim_;

  std::map<PeerAddr, Endpoint> peers_;
  std::set<PeerAddr> connected_;
  std::map<PeerAddr, std::vector<PendingDial>> dials_;
  std::map<std::uint64_t, PendingRequest> requests_;
  std::uint64_t next_request_id_ = 1;

  sim::RequestHandler request_handler_;
  sim::MessageHandler message_handler_;
};

}  // namespace ipfs::transport
