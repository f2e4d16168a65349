// Pluggable messaging transport: the seam between protocol code and the
// wire (ISSUE 8, ROADMAP "same node code on real sockets").
//
// Every protocol subsystem (dht, bitswap, pubsub, ipns, indexer, routing,
// node, gateway) holds a Transport& and speaks only this interface: send a
// message, issue a request, register handlers, read the clock, arm timers.
// A node has one endpoint, shared by every engine on it and owned by the
// code that adds the node: world::World and scenario::Scenario for the
// nodes they build, node::IpfsNode's simulator constructor for its own.
// Two backends implement it:
//
//   SimTransport    — thin adapter over sim::Network; pure delegation, so
//                     a simulation driven through it produces the exact
//                     event/rng/trace stream the raw fabric produced
//                     before this API existed.
//   SocketTransport — real UDP datagrams on a poll(2) event loop with
//                     length-prefixed frames and wire codecs
//                     (transport/codec.h) for the protocol messages; its
//                     timers run on its own sim::Simulator, stepped to the
//                     wall clock by poll_once().
//
// Both backends schedule on a sim::Simulator and hand out its Timer, whose
// cancel() and active() read that Simulator. So a backend must outlive
// every object that cancels or queries any of its timers, daemon timers
// included (the destructors of DhtNode, Pubsub and Indexer cancel
// theirs), exactly as a Simulator must.
//
// The vocabulary types (Message, MessagePtr, RpcStatus, the handler
// signatures) are shared with the simulator so protocol structs need no
// changes; the sim-only surface (sim::Network itself, NodeConfig, fault
// injection, latency models) stays behind this interface and is only
// named by harness code (scenario, world, benches), by the backends in
// this directory, and by the classes that build whole simulated nodes
// (IpfsNode's simulator constructor, Gateway, GatewayFleet).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "metrics/metrics.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace ipfs::transport {

// A peer's address as protocol code sees it. Under SimTransport this is
// the sim::NodeId; under SocketTransport it indexes a static peer table
// mapping addresses to UDP endpoints.
using PeerAddr = sim::NodeId;
inline constexpr PeerAddr kInvalidPeer = sim::kInvalidNode;

// Cancellation handle for a scheduled callback: the event core's own
// sim::Timer, on both backends.
//   - cancel() before the callback fires guarantees it never runs;
//   - cancel() after it fired (or on a default-constructed handle) is a
//     no-op; active() is false in both cases.
using Timer = sim::Timer;

class Transport {
 public:
  virtual ~Transport() = default;

  // --- Identity & liveness ------------------------------------------------

  virtual PeerAddr local() const = 0;
  // Whether the local endpoint is up. Protocol maintenance loops check
  // this to go quiet across a crash (the restart re-arms them).
  virtual bool online() const = 0;

  // --- Clock & timers -----------------------------------------------------

  // Microseconds on the backend's clock: virtual time in the simulator,
  // monotonic wall time since start under sockets. Only differences and
  // ordering are meaningful to protocol code.
  virtual sim::Time now() const = 0;
  virtual Timer schedule_after(sim::Duration delay,
                               std::function<void()> fn) = 0;
  // Daemon timers (periodic maintenance) must not keep the backend's
  // event loop alive on their own.
  virtual Timer schedule_daemon_after(sim::Duration delay,
                                      std::function<void()> fn) = 0;
  virtual Timer schedule_daemon_at(sim::Time when, std::function<void()> fn) = 0;

  // --- Connections --------------------------------------------------------

  // Dials `peer`; the callback reports success and elapsed handshake
  // time. Dialing an already-connected peer succeeds immediately with
  // zero elapsed time.
  virtual void connect(PeerAddr peer, sim::DialCallback cb) = 0;
  virtual void disconnect(PeerAddr peer) = 0;
  virtual bool connected(PeerAddr peer) const = 0;
  // Snapshot of the connected-peer set (by value: callers iterate while
  // mutating the live set, e.g. ConnectionManager pruning).
  virtual std::vector<PeerAddr> connections() const = 0;
  // Reachability hint for AutoNAT-style logic: whether the backend
  // believes `peer` accepts inbound dials. Sockets report true (the peer
  // table only lists reachable endpoints).
  virtual bool peer_dialable(PeerAddr peer) const = 0;
  // Round trips a fresh handshake to `peer` costs (paper Section 6.1);
  // the node layer uses it to estimate dial-time shares.
  virtual int handshake_round_trips(PeerAddr peer) const = 0;

  // --- Messaging ----------------------------------------------------------

  // Fire-and-forget message of `bytes` wire size to a connected peer.
  virtual void send(PeerAddr to, sim::MessagePtr message,
                    std::size_t bytes) = 0;
  // Request/response with timeout. The callback fires exactly once with
  // kOk and the response, or a failure status and nullptr.
  virtual void request(PeerAddr to, sim::MessagePtr request,
                       std::size_t request_bytes, sim::Duration timeout,
                       sim::ResponseCallback cb) = 0;
  // Inbound dispatch. The `from` argument of both handlers is the remote
  // PeerAddr. At most one handler of each kind; nodes multiplex protocols
  // inside their handler (see node::IpfsNode).
  virtual void set_request_handler(sim::RequestHandler handler) = 0;
  virtual void set_message_handler(sim::MessageHandler handler) = 0;

  // --- Observability ------------------------------------------------------

  // Metrics registry this endpoint reports into. SimTransport returns the
  // shared per-simulation registry; SocketTransport owns a per-process
  // one. Both maintain transport.{tx,rx}.{messages,bytes} counters (see
  // docs/OBSERVABILITY.md).
  virtual metrics::Registry& metrics() = 0;
};

}  // namespace ipfs::transport
