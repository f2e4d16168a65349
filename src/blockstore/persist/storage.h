// Byte-level storage backend for the persistent blockstore: a tiny
// append-only file abstraction (docs/BLOCKSTORE.md).
//
// Two implementations:
//
//   MemStorage   — in-memory files with an explicit synced-bytes
//                  watermark per file. drop_unsynced() simulates power
//                  loss: everything appended since the last sync() is
//                  truncated at a seeded-random byte (possibly tearing a
//                  record mid-write), which is what the crash-during-
//                  flush fuzz sweep exercises deterministically.
//   PosixStorage — real files under a directory; append/pread/fsync/
//                  ftruncate/unlink. What ipfsd --store-dir runs on.
//
// PersistentBlockStore is written against this interface only, so the
// exact same recovery code path handles a simulated torn record and a
// real one.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace ipfs::blockstore::persist {

class Storage {
 public:
  virtual ~Storage() = default;

  // Names of existing files, lexicographically sorted.
  virtual std::vector<std::string> list() const = 0;
  // Current size in bytes; 0 for a missing file.
  virtual std::uint64_t size(const std::string& name) const = 0;
  // Appends to `name`, creating it if missing.
  virtual bool append(const std::string& name,
                      std::span<const std::uint8_t> data) = 0;
  // Reads exactly [offset, offset+len) into `out` (resized). False when
  // the range walks past the end of the file.
  virtual bool read_at(const std::string& name, std::uint64_t offset,
                       std::uint64_t len,
                       std::vector<std::uint8_t>& out) const = 0;
  virtual bool truncate(const std::string& name, std::uint64_t new_size) = 0;
  virtual bool remove(const std::string& name) = 0;
  // Durability barrier for one file (fsync). Data appended before a
  // sync() survives drop_unsynced()/power loss; later bytes may not.
  virtual bool sync(const std::string& name) = 0;

  // Power-loss simulation: for every file, bytes appended since its last
  // sync() are cut at a seeded-random point. Real backends cannot
  // simulate this and leave files alone (their tail state after a real
  // crash is whatever the kernel persisted).
  virtual void drop_unsynced(std::uint64_t seed) { (void)seed; }

  // Convenience: whole-file read.
  bool read_all(const std::string& name, std::vector<std::uint8_t>& out) const {
    return read_at(name, 0, size(name), out);
  }
};

class MemStorage final : public Storage {
 public:
  std::vector<std::string> list() const override;
  std::uint64_t size(const std::string& name) const override;
  bool append(const std::string& name,
              std::span<const std::uint8_t> data) override;
  bool read_at(const std::string& name, std::uint64_t offset,
               std::uint64_t len,
               std::vector<std::uint8_t>& out) const override;
  bool truncate(const std::string& name, std::uint64_t new_size) override;
  bool remove(const std::string& name) override;
  bool sync(const std::string& name) override;
  void drop_unsynced(std::uint64_t seed) override;

 private:
  struct File {
    std::vector<std::uint8_t> bytes;
    std::uint64_t synced = 0;  // durable prefix length
  };
  std::map<std::string, File> files_;
};

class PosixStorage final : public Storage {
 public:
  // Creates `directory` (and parents) if missing.
  explicit PosixStorage(std::string directory);
  ~PosixStorage() override;

  std::vector<std::string> list() const override;
  std::uint64_t size(const std::string& name) const override;
  bool append(const std::string& name,
              std::span<const std::uint8_t> data) override;
  bool read_at(const std::string& name, std::uint64_t offset,
               std::uint64_t len,
               std::vector<std::uint8_t>& out) const override;
  bool truncate(const std::string& name, std::uint64_t new_size) override;
  bool remove(const std::string& name) override;
  bool sync(const std::string& name) override;

  const std::string& directory() const { return directory_; }

 private:
  int fd_for(const std::string& name, bool create) const;
  std::string path_of(const std::string& name) const;

  std::string directory_;
  // Open-descriptor cache: segment files are appended to and fsynced
  // many times; one open() each is plenty.
  mutable std::map<std::string, int> fds_;
};

}  // namespace ipfs::blockstore::persist
