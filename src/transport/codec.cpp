#include "transport/codec.h"

#include <array>
#include <concepts>
#include <memory>
#include <optional>
#include <string>

#include "bitswap/bitswap.h"
#include "dht/messages.h"
#include "indexer/messages.h"
#include "pubsub/pubsub.h"

namespace ipfs::transport {
namespace {

// Wire tags are sim::MessageKind values (sim/message_kind.h): the same
// constant a message reports via kind() is what goes on the wire.
using Tag = sim::MessageKind;

// Upper bound on any single length prefix. Untrusted input can claim any
// u32; capping it keeps a hostile 4 GB claim from turning into an
// allocation, without constraining real traffic (blocks are ≤ 256 KiB).
constexpr std::uint32_t kMaxFieldBytes = 64u * 1024 * 1024;

using Bytes = std::vector<std::uint8_t>;

// A repeated field: a u32 count, then the elements. `min_bytes` is the
// fewest bytes one element takes on the wire, so the reader can refuse a
// count the rest of the buffer could never hold before allocating.
template <class T>
struct List {
  std::vector<T>& items;
  std::size_t min_bytes;
};

template <class T>
List<T> list(std::vector<T>& items, std::size_t min_bytes) {
  return {items, min_bytes};
}

// --- Layouts ----------------------------------------------------------------
// Each wire struct's fields, in wire order. `io` is a Writer or a Reader,
// so the one list serves both directions: the Reader fills the mutable
// references, and the Writer only reads them.

void fields(auto& io, dht::PeerRef& m) {
  io(m.id, m.node, m.addresses);  // AddressList: a repeated Multiaddr
}

void fields(auto& io, dht::ProviderRecord& m) {
  io(m.provider, m.received_at);
}

void fields(auto& io, dht::ValueRecord& m) {
  io(m.value, m.sequence, m.received_at);
}

void fields(auto& io, dht::LookupRequestBase& m) {
  io(m.requester, m.requester_is_server);
}

void fields(auto& io, dht::FindNodeRequest& m) {
  io(static_cast<dht::LookupRequestBase&>(m), m.target);
}

void fields(auto& io, dht::FindNodeResponse& m) {
  io(list(m.closer, 9));
}

void fields(auto& io, dht::GetProvidersRequest& m) {
  io(static_cast<dht::LookupRequestBase&>(m), m.key);
}

void fields(auto& io, dht::GetProvidersResponse& m) {
  io(list(m.providers, 17), list(m.closer, 9));
}

void fields(auto& io, dht::AddProviderRequest& m) {
  io(m.key, m.provider);
}

void fields(auto& io, dht::PutValueRequest& m) {
  io(m.key, m.record);
}

void fields(auto& io, dht::GetValueRequest& m) {
  io(static_cast<dht::LookupRequestBase&>(m), m.key);
}

void fields(auto& io, dht::GetValueResponse& m) {
  io(m.record, list(m.closer, 9));  // record: presence flag, then fields
}

void fields(auto&, dht::ListBucketsRequest&) {}

void fields(auto& io, dht::ListBucketsResponse& m) {
  io(list(m.peers, 9));
}

void fields(auto&, dht::DialBackRequest&) {}

void fields(auto& io, dht::DialBackResponse& m) {
  io(m.reachable);
}

void fields(auto& io, bitswap::WantHaveRequest& m) {
  io(m.cid);
}

void fields(auto& io, bitswap::HaveResponse& m) {
  io(m.have);
}

void fields(auto& io, bitswap::WantBlockRequest& m) {
  io(m.cid, m.send_dont_have);
}

void fields(auto& io, bitswap::BlockResponse& m) {
  io(m.cid, m.data, m.dont_have);  // BlockData: presence flag, then bytes
}

void fields(auto& io, pubsub::MessageId& m) {
  io(m.origin, m.seqno);
}

void fields(auto& io, pubsub::SubOpts& m) {
  io(m.topic, m.subscribe);
}

void fields(auto& io, pubsub::PubsubMessage& m) {
  io(m.id, m.topic, m.data);
}

void fields(auto& io, pubsub::ControlIHave& m) {
  io(m.topic, list(m.ids, 12));
}

void fields(auto& io, pubsub::ControlIWant& m) {
  io(list(m.ids, 12));
}

void fields(auto& io, pubsub::ControlGraft& m) {
  io(m.topic);
}

void fields(auto& io, pubsub::ControlPrune& m) {
  io(m.topic, list(m.px, 4));
}

void fields(auto& io, pubsub::GossipRpc& m) {
  io(list(m.subscriptions, 5), m.announce_reply, list(m.publish, 20),
     list(m.ihave, 8), list(m.iwant, 4), list(m.graft, 4),
     list(m.prune, 8));
}

void fields(auto& io, indexer::AdvertiseMessage& m) {
  io(m.key, m.provider);
}

void fields(auto& io, indexer::QueryRequest& m) {
  io(m.key);
}

void fields(auto& io, indexer::QueryResponse& m) {
  io(list(m.providers, 17));
}

// A struct with a layout above, as opposed to a leaf field.
template <class T, class Io>
concept HasLayout = requires(Io& io, T& value) { fields(io, value); };

// --- Leaf encodings ----------------------------------------------------------
// Integers are little-endian at their own width (a bool is one byte, 0
// or 1). Byte strings, text and the multiformats objects (PeerId,
// Multiaddr, Cid, as their canonical binary encodings) carry a u32 length
// prefix. A dht::Key is its 32 raw bytes.

class Writer {
 public:
  Bytes take() { return std::move(out_); }

  template <class... Fields>
  void operator()(Fields&&... fields) {
    (put(fields), ...);
  }

 private:
  template <class T>
    requires HasLayout<T, Writer>
  void put(T& value) {
    fields(*this, value);
  }
  template <class T>
  void put(List<T> field) {
    put(static_cast<std::uint32_t>(field.items.size()));
    for (T& item : field.items) put(item);
  }
  template <class T>
  void put(std::optional<T>& value) {
    put(value.has_value());
    if (value) put(*value);
  }
  void put(const bitswap::BlockData& data) {
    put(data != nullptr);
    if (data) put(*data);
  }
  void put(const multiformats::AddressList& addresses) {
    put(static_cast<std::uint32_t>(addresses.size()));
    for (const auto& address : addresses) put(address);
  }

  template <std::integral Int>
  void put(Int value) {
    const auto bits = static_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < sizeof(Int); ++i)
      out_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  void put(const dht::Key& key) {
    out_.insert(out_.end(), key.bytes().begin(), key.bytes().end());
  }
  void put(std::span<const std::uint8_t> data) {
    put(static_cast<std::uint32_t>(data.size()));
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void put(const std::string& text) {
    put(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()));
  }
  void put(const multiformats::PeerId& id) { put(id.encode()); }
  void put(const multiformats::Multiaddr& addr) { put(addr.encode()); }
  void put(const multiformats::Cid& cid) { put(cid.encode()); }

  Bytes out_;
};

// Bounds-checked reader: past the end of the buffer, or on a value the
// format forbids, it sets fail() and leaves defaults instead of walking
// out of bounds, so a decode of hostile bytes degrades to nullptr, never
// UB.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  bool fail() const { return fail_; }
  bool exhausted() const { return pos_ == data_.size(); }

  template <class... Fields>
  void operator()(Fields&&... fields) {
    (get(fields), ...);
  }

 private:
  template <class T>
    requires HasLayout<T, Reader>
  void get(T& value) {
    fields(*this, value);
  }
  template <class T>
  void get(List<T> field) {
    std::uint32_t n = 0;
    get(n);
    if (n > (data_.size() - pos_) / field.min_bytes) fail_ = true;
    for (std::uint32_t i = 0; i < n && !fail_; ++i)
      get(field.items.emplace_back());
  }
  template <class T>
  void get(std::optional<T>& value) {
    bool present = false;
    get(present);
    if (present) get(value.emplace());
  }
  void get(bitswap::BlockData& data) {
    std::optional<Bytes> bytes;
    get(bytes);
    if (bytes) data = std::make_shared<const Bytes>(std::move(*bytes));
  }
  // An address is at least its u32 length prefix.
  void get(multiformats::AddressList& addresses) {
    std::vector<multiformats::Multiaddr> items;
    get(list(items, 4));
    addresses = multiformats::AddressList(std::move(items));
  }

  template <std::integral Int>
  void get(Int& value) {
    std::uint64_t bits = 0;
    const auto view = take(sizeof(Int));
    for (std::size_t i = 0; i < view.size(); ++i)
      bits |= std::uint64_t(view[i]) << (8 * i);
    value = static_cast<Int>(bits);
  }
  void get(bool& value) {
    std::uint8_t byte = 0;
    get(byte);
    if (byte > 1) fail_ = true;
    value = byte == 1;
  }
  void get(dht::Key& key) {
    std::array<std::uint8_t, 32> raw{};
    for (std::uint8_t& byte : raw) get(byte);
    key = dht::Key(raw);
  }
  void get(Bytes& data) {
    const auto view = prefixed();
    data.assign(view.begin(), view.end());
  }
  void get(std::string& text) {
    const auto view = prefixed();
    text.assign(reinterpret_cast<const char*>(view.data()), view.size());
  }
  void get(multiformats::PeerId& id) {
    multiformats::Multihash hash;
    adopt(hash, multiformats::Multihash::decode(prefixed()));
    id = multiformats::PeerId(std::move(hash));
  }
  void get(multiformats::Multiaddr& addr) {
    adopt(addr, multiformats::Multiaddr::decode(prefixed()));
  }
  void get(multiformats::Cid& cid) {
    adopt(cid, multiformats::Cid::decode(prefixed()));
  }

  // Takes a parsed value, or fails on bytes its decoder refused.
  template <class T>
  void adopt(T& value, std::optional<T> parsed) {
    if (parsed)
      value = std::move(*parsed);
    else
      fail_ = true;
  }

  // A length-prefixed field. A claim over kMaxFieldBytes fails the parse
  // before anything is read or allocated for it.
  std::span<const std::uint8_t> prefixed() {
    std::uint32_t n = 0;
    get(n);
    if (n > kMaxFieldBytes) {
      fail_ = true;
      return {};
    }
    return take(n);
  }

  // The next `n` bytes, or an empty view and fail() past the end.
  std::span<const std::uint8_t> take(std::size_t n) {
    if (fail_ || data_.size() - pos_ < n) {
      fail_ = true;
      return {};
    }
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

// --- The tag table -----------------------------------------------------------
// One row per wire tag: the struct it carries, for both directions.

struct Row {
  Tag tag;
  void (*encode)(Writer&, sim::Message&);
  sim::MessagePtr (*decode)(Reader&);
};

template <class T>
constexpr Row row(Tag tag) {
  return {tag, [](Writer& w, sim::Message& m) { w(static_cast<T&>(m)); },
          [](Reader& r) -> sim::MessagePtr {
            auto m = std::make_shared<T>();
            r(*m);
            return m;
          }};
}

constexpr Row kTable[] = {
    row<dht::FindNodeRequest>(Tag::kFindNodeRequest),
    row<dht::FindNodeResponse>(Tag::kFindNodeResponse),
    row<dht::GetProvidersRequest>(Tag::kGetProvidersRequest),
    row<dht::GetProvidersResponse>(Tag::kGetProvidersResponse),
    row<dht::AddProviderRequest>(Tag::kAddProviderRequest),
    row<dht::PutValueRequest>(Tag::kPutValueRequest),
    row<dht::GetValueRequest>(Tag::kGetValueRequest),
    row<dht::GetValueResponse>(Tag::kGetValueResponse),
    row<dht::ListBucketsRequest>(Tag::kListBucketsRequest),
    row<dht::ListBucketsResponse>(Tag::kListBucketsResponse),
    row<dht::DialBackRequest>(Tag::kDialBackRequest),
    row<dht::DialBackResponse>(Tag::kDialBackResponse),
    row<bitswap::WantHaveRequest>(Tag::kWantHaveRequest),
    row<bitswap::HaveResponse>(Tag::kHaveResponse),
    row<bitswap::WantBlockRequest>(Tag::kWantBlockRequest),
    row<bitswap::BlockResponse>(Tag::kBlockResponse),
    row<pubsub::GossipRpc>(Tag::kGossipRpc),
    row<indexer::AdvertiseMessage>(Tag::kAdvertiseMessage),
    row<indexer::QueryRequest>(Tag::kQueryRequest),
    row<indexer::QueryResponse>(Tag::kQueryResponse),
};

// nullptr for kUnknown and any tag without a row.
const Row* find_row(Tag tag) {
  for (const Row& row : kTable)
    if (row.tag == tag) return &row;
  return nullptr;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> encode_message(
    const sim::Message& message) {
  const Row* row = find_row(message.kind());
  if (row == nullptr) return std::nullopt;
  Writer w;
  w(static_cast<std::uint16_t>(row->tag));
  // The layouts take mutable references so that one serves both
  // directions; the Writer only reads them.
  row->encode(w, const_cast<sim::Message&>(message));
  return w.take();
}

sim::MessagePtr decode_message(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  std::uint16_t tag = 0;
  r(tag);
  const Row* row = find_row(static_cast<Tag>(tag));
  if (r.fail() || row == nullptr) return nullptr;
  sim::MessagePtr out = row->decode(r);
  // Reject partial parses and trailing garbage alike: an encoded message
  // occupies the payload exactly.
  if (r.fail() || !r.exhausted()) return nullptr;
  return out;
}

}  // namespace ipfs::transport
