#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hdfs/types.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace erms::hdfs {

/// Interns file paths to dense `FileId`s, mirroring the `cep::SymbolTable`
/// idiom: each distinct path is stored exactly once and every downstream
/// layer keys its state by the 32-bit id instead of re-hashing the string.
///
/// Storage is an append-only chunked arena per shard, so the
/// `std::string_view`s handed out stay stable for the table's lifetime —
/// `FileInfo::path` views this arena directly. Removing a path only drops
/// the index entry; the arena bytes are tombstoned (paths are short and
/// deletes rare relative to the metadata they free, so reclaiming them is
/// not worth the pointer invalidation it would cause).
///
/// The index is sharded by path hash: each shard has its own mutex, index
/// map and arena, so bulk ingest can intern from many threads without a
/// global lock. Shard
/// count never affects observable behaviour — ids are assigned by the
/// caller (`Namespace`'s serial generator), the table only stores them.
class PathTable {
 public:
  explicit PathTable(std::size_t shards = 1);

  PathTable(const PathTable&) = delete;
  PathTable& operator=(const PathTable&) = delete;
  PathTable(PathTable&&) = default;
  PathTable& operator=(PathTable&&) = default;

  /// Copy `path` into the arena and map it to `id`. Returns the stable
  /// arena-backed view of the path, or nullopt if the path is already
  /// present (the existing mapping is untouched).
  std::optional<std::string_view> intern(std::string_view path, FileId id);

  /// Id a path maps to, or nullopt.
  [[nodiscard]] std::optional<FileId> find(std::string_view path) const;

  /// Drop the mapping for `path`. Returns false if absent. The arena bytes
  /// remain allocated (see class comment).
  bool erase(std::string_view path);

  /// Number of live (non-erased) paths.
  [[nodiscard]] std::size_t size() const;

  /// Bytes currently committed to path storage across all shard arenas.
  [[nodiscard]] std::size_t arena_bytes() const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Pre-size each shard's index for about `paths` total entries.
  void reserve(std::size_t paths);

 private:
  struct Shard {
    mutable util::Mutex mu;
    /// Lookup-only at steady state; never drained in hash order — size() and
    /// arena accounting read the counters below instead.
    std::unordered_map<std::string_view, FileId> index ERMS_GUARDED_BY(mu);
    std::vector<std::unique_ptr<char[]>> chunks ERMS_GUARDED_BY(mu);
    std::size_t chunk_used ERMS_GUARDED_BY(mu){0};
    std::size_t chunk_size ERMS_GUARDED_BY(mu){0};
    std::size_t bytes ERMS_GUARDED_BY(mu){0};

    std::string_view store(std::string_view path) ERMS_REQUIRES(mu);
  };

  [[nodiscard]] Shard& shard_for(std::string_view path) const;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace erms::hdfs
