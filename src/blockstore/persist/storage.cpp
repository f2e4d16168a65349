#include "blockstore/persist/storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>

namespace ipfs::blockstore::persist {

// ---- MemStorage -----------------------------------------------------------

std::vector<std::string> MemStorage::list() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

std::uint64_t MemStorage::size(const std::string& name) const {
  const auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.bytes.size();
}

bool MemStorage::append(const std::string& name,
                        std::span<const std::uint8_t> data) {
  auto& file = files_[name];
  file.bytes.insert(file.bytes.end(), data.begin(), data.end());
  return true;
}

bool MemStorage::read_at(const std::string& name, std::uint64_t offset,
                         std::uint64_t len,
                         std::vector<std::uint8_t>& out) const {
  const auto it = files_.find(name);
  if (it == files_.end()) return false;
  const auto& bytes = it->second.bytes;
  if (offset > bytes.size() || bytes.size() - offset < len) return false;
  out.assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
             bytes.begin() + static_cast<std::ptrdiff_t>(offset + len));
  return true;
}

bool MemStorage::truncate(const std::string& name, std::uint64_t new_size) {
  const auto it = files_.find(name);
  if (it == files_.end()) return false;
  auto& file = it->second;
  if (new_size > file.bytes.size()) return false;
  file.bytes.resize(new_size);
  file.synced = std::min<std::uint64_t>(file.synced, new_size);
  return true;
}

bool MemStorage::remove(const std::string& name) {
  return files_.erase(name) > 0;
}

bool MemStorage::sync(const std::string& name) {
  const auto it = files_.find(name);
  if (it == files_.end()) return false;
  it->second.synced = it->second.bytes.size();
  return true;
}

void MemStorage::drop_unsynced(std::uint64_t seed) {
  // splitmix64 per file, keyed by the seed and the file name, so the cut
  // point is deterministic for a given (seed, name) pair but independent
  // across files — one crash can tear several tails differently.
  for (auto& [name, file] : files_) {
    const std::uint64_t at_risk = file.bytes.size() - file.synced;
    if (at_risk == 0) continue;
    std::uint64_t x = seed ^ 0x9e3779b97f4a7c15ULL;
    for (const char c : name) x = (x ^ std::uint64_t(std::uint8_t(c))) *
                                  0xff51afd7ed558ccdULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    // Keep a random prefix [0, at_risk] of the unsynced tail: 0 models
    // "nothing hit the platter", at_risk-1 a torn final record.
    const std::uint64_t keep = x % (at_risk + 1);
    file.bytes.resize(file.synced + keep);
  }
}

// ---- PosixStorage ---------------------------------------------------------

PosixStorage::PosixStorage(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
}

PosixStorage::~PosixStorage() {
  for (const auto& [name, fd] : fds_)
    if (fd >= 0) ::close(fd);
}

std::string PosixStorage::path_of(const std::string& name) const {
  return directory_ + "/" + name;
}

int PosixStorage::fd_for(const std::string& name, bool create) const {
  const auto it = fds_.find(name);
  if (it != fds_.end()) return it->second;
  // O_APPEND: every write lands at the end of the file, so append()
  // needs no size lookup; pread and ftruncate are unaffected.
  const int flags = O_RDWR | O_APPEND | O_CLOEXEC | (create ? O_CREAT : 0);
  const int fd = ::open(path_of(name).c_str(), flags, 0644);
  if (fd < 0) return -1;
  fds_[name] = fd;
  return fd;
}

std::vector<std::string> PosixStorage::list() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    if (entry.is_regular_file()) names.push_back(entry.path().filename());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::uint64_t PosixStorage::size(const std::string& name) const {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path_of(name), ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

bool PosixStorage::append(const std::string& name,
                          std::span<const std::uint8_t> data) {
  const int fd = fd_for(name, true);
  if (fd < 0) return false;
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool PosixStorage::read_at(const std::string& name, std::uint64_t offset,
                           std::uint64_t len,
                           std::vector<std::uint8_t>& out) const {
  const int fd = fd_for(name, false);
  if (fd < 0) return false;
  out.resize(len);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, out.data() + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool PosixStorage::truncate(const std::string& name, std::uint64_t new_size) {
  const int fd = fd_for(name, false);
  if (fd < 0) return false;
  return ::ftruncate(fd, static_cast<off_t>(new_size)) == 0;
}

bool PosixStorage::remove(const std::string& name) {
  const auto it = fds_.find(name);
  if (it != fds_.end()) {
    ::close(it->second);
    fds_.erase(it);
  }
  return ::unlink(path_of(name).c_str()) == 0;
}

bool PosixStorage::sync(const std::string& name) {
  const int fd = fd_for(name, false);
  if (fd < 0) return false;
  return ::fsync(fd) == 0;
}

}  // namespace ipfs::blockstore::persist
