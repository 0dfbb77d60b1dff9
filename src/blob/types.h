// Core BlobSeer types: blobs, versions, pages, write history records.
//
// A BLOB is a huge byte sequence split into fixed-size pages. Data is never
// overwritten: each write/append creates a new *version* (snapshot); old
// versions stay readable. The version manager records, for every assigned
// version, which page range it touched and the blob size afterwards — this
// write history is what lets concurrent writers build their metadata trees
// without reading each other's unpublished state (see metadata.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.h"
#include "net/cluster.h"

namespace bs::blob {

using BlobId = uint32_t;
// Version 0 is "empty blob at creation"; the first write produces version 1.
using Version = uint32_t;
constexpr Version kNoVersion = 0;

// A page-granular range [first, first + count).
struct PageRange {
  uint64_t first = 0;
  uint64_t count = 0;

  uint64_t end() const { return first + count; }
  bool empty() const { return count == 0; }
  bool intersects(const PageRange& o) const {
    return count > 0 && o.count > 0 && first < o.end() && o.first < end();
  }
  bool contains(const PageRange& o) const {
    return first <= o.first && o.end() <= end();
  }
  bool operator==(const PageRange& o) const {
    return first == o.first && count == o.count;
  }
};

// One entry of a blob's write history, kept by the version manager.
struct WriteRecord {
  Version version = kNoVersion;
  PageRange range;          // pages touched by this write
  uint64_t size_after = 0;  // blob size in bytes once this version publishes
  uint64_t cap_after = 0;   // tree capacity in pages at this version
};

// Static per-blob parameters fixed at creation.
struct BlobDescriptor {
  BlobId id = 0;
  uint64_t page_size = 0;
  uint32_t replication = 1;  // page replication degree
};

// Published-version info returned by the version manager to readers.
struct VersionInfo {
  Version version = kNoVersion;
  uint64_t size = 0;       // bytes
  uint64_t cap_pages = 0;  // tree capacity (power of two), 0 for empty blob
};

// Everything a writer needs to perform an assigned write: its version, the
// resolved byte offset (appends are resolved against the latest assigned
// size), and read access to the records of versions 1..version-1.
//
// Those records are not copied: the ticket shares the version manager's
// append-only log of the blob and reads only its own prefix. Records below
// `version` never change once the ticket is issued (the log only grows,
// and versions are assigned consecutively from 1), so the prefix is
// exactly the history as it stood at assignment.
struct WriteTicket {
  BlobId blob = 0;
  Version version = kNoVersion;
  uint64_t offset = 0;      // bytes, page-aligned
  uint64_t size_after = 0;  // bytes
  uint64_t cap_pages = 0;   // tree capacity for this version
  std::shared_ptr<const std::vector<WriteRecord>> log;  // the blob's log

  // Records for versions < version, ascending. A later assign may grow
  // (and reallocate) the shared log, so take the span right before use
  // and never hold it across a co_await.
  std::span<const WriteRecord> history() const {
    return {log->data(), version - 1};
  }
};

// Identifies one stored page replica: which version wrote page `index` of
// blob `blob`, and where it lives.
struct PageKey {
  BlobId blob = 0;
  uint64_t index = 0;
  Version version = kNoVersion;

  bool operator==(const PageKey& o) const {
    return blob == o.blob && index == o.index && version == o.version;
  }
};

// Location of one page at a given version: the writing version plus the
// provider nodes holding replicas. Returned by the layout-exposure
// primitive (paper §III.B) so the MapReduce scheduler can place tasks.
struct PageLocation {
  uint64_t index = 0;
  Version version = kNoVersion;
  uint32_t length = 0;  // bytes actually stored (last page may be partial)
  std::vector<net::NodeId> providers;
};

inline uint64_t next_pow2(uint64_t x) {
  if (x <= 1) return 1;
  uint64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

inline uint64_t pages_for_bytes(uint64_t bytes, uint64_t page_size) {
  return (bytes + page_size - 1) / page_size;
}

}  // namespace bs::blob

// Lookup hash for the providers' page maps; bs::SeededHash avalanches it.
template <>
struct std::hash<bs::blob::PageKey> {
  size_t operator()(const bs::blob::PageKey& k) const noexcept {
    return static_cast<size_t>(
        ((static_cast<uint64_t>(k.blob) << 32) | k.version) ^
        (k.index * 0x9e3779b97f4a7c15ULL));
  }
};
