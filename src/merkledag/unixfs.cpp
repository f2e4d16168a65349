#include "merkledag/unixfs.h"

#include <algorithm>
#include <map>

#include "multiformats/varint.h"

namespace ipfs::merkledag {
namespace {

// First byte of DagNode::data distinguishing node flavours. File interior
// nodes keep empty data; leaves are raw blocks, so the marker is
// unambiguous.
constexpr std::uint8_t kDirectoryMarker = 0xD1;

bool valid_name(const std::string& name) {
  return !name.empty() && name.find('/') == std::string::npos;
}

}  // namespace

std::optional<Cid> make_directory(BlockStore& store,
                                  std::vector<DirectoryEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const DirectoryEntry& a, const DirectoryEntry& b) {
              return a.name < b.name;
            });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!valid_name(entries[i].name)) return std::nullopt;
    if (i > 0 && entries[i].name == entries[i - 1].name) return std::nullopt;
  }

  DagNode node;
  node.data.push_back(kDirectoryMarker);
  multiformats::varint_encode(entries.size(), node.data);
  for (const auto& entry : entries) {
    multiformats::varint_encode(entry.name.size(), node.data);
    node.data.insert(node.data.end(), entry.name.begin(), entry.name.end());
    node.links.push_back(DagLink{entry.cid, entry.size});
  }

  const auto block = blockstore::Block::from_data(
      multiformats::Multicodec::kDagPb, node.encode());
  store.put(block);
  return block.cid;
}

std::optional<std::vector<DirectoryEntry>> read_directory(
    const BlockStore& store, const Cid& cid) {
  if (cid.content_codec() != multiformats::Multicodec::kDagPb)
    return std::nullopt;
  const auto block = store.get(cid);
  if (!block) return std::nullopt;
  const auto node = DagNode::decode(*block);
  if (!node || node->data.empty() || node->data[0] != kDirectoryMarker)
    return std::nullopt;

  std::span<const std::uint8_t> data(node->data);
  data = data.subspan(1);
  const auto count = multiformats::varint_decode(data);
  if (!count || count->value != node->links.size()) return std::nullopt;
  data = data.subspan(count->consumed);

  std::vector<DirectoryEntry> entries;
  entries.reserve(node->links.size());
  for (std::size_t i = 0; i < node->links.size(); ++i) {
    const auto name_len = multiformats::varint_decode(data);
    if (!name_len) return std::nullopt;
    data = data.subspan(name_len->consumed);
    if (data.size() < name_len->value) return std::nullopt;
    entries.push_back(DirectoryEntry{
        std::string(data.begin(), data.begin() + name_len->value),
        node->links[i].cid, node->links[i].content_size});
    data = data.subspan(name_len->value);
  }
  return entries;
}

bool is_directory(const BlockStore& store, const Cid& cid) {
  return read_directory(store, cid).has_value();
}

std::optional<Cid> resolve_path(const BlockStore& store, const Cid& root,
                                std::string_view path) {
  Cid current = root;
  std::size_t pos = 0;
  while (pos < path.size()) {
    while (pos < path.size() && path[pos] == '/') ++pos;
    if (pos >= path.size()) break;
    const std::size_t end = std::min(path.find('/', pos), path.size());
    const std::string_view segment = path.substr(pos, end - pos);
    pos = end;

    const auto entries = read_directory(store, current);
    if (!entries) return std::nullopt;  // path descends into a file
    const auto it = std::find_if(entries->begin(), entries->end(),
                                 [&](const DirectoryEntry& entry) {
                                   return entry.name == segment;
                                 });
    if (it == entries->end()) return std::nullopt;
    current = it->cid;
  }
  return current;
}

std::optional<Cid> import_tree(BlockStore& store,
                               const std::vector<TreeFile>& files) {
  // Group files by their top-level segment; recurse per subdirectory.
  std::vector<DirectoryEntry> entries;
  std::map<std::string, std::vector<TreeFile>> subdirs;

  for (const auto& file : files) {
    std::string_view path = file.path;
    while (!path.empty() && path.front() == '/') path.remove_prefix(1);
    if (path.empty()) return std::nullopt;
    const std::size_t slash = path.find('/');
    if (slash == std::string_view::npos) {
      const auto import = import_bytes(store, file.content);
      entries.push_back(DirectoryEntry{std::string(path), import.root,
                                       import.content_bytes});
    } else {
      TreeFile nested;
      nested.path = std::string(path.substr(slash + 1));
      nested.content = file.content;
      subdirs[std::string(path.substr(0, slash))].push_back(
          std::move(nested));
    }
  }

  for (const auto& [name, nested_files] : subdirs) {
    const auto subdir = import_tree(store, nested_files);
    if (!subdir) return std::nullopt;
    std::uint64_t size = 0;
    if (const auto sub_entries = read_directory(store, *subdir)) {
      for (const auto& entry : *sub_entries) size += entry.size;
    }
    entries.push_back(DirectoryEntry{name, *subdir, size});
  }

  return make_directory(store, std::move(entries));
}

}  // namespace ipfs::merkledag
