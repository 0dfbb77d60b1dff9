// Ordered key-value store — the BerkeleyDB stand-in behind BlobSeer page
// providers, HDFS DataNodes and DHT metadata providers.
//
// The store stands for the disk contents, which survive a plain crash;
// owners that buffer writes erase the unsynced ones on power loss
// (blob/provider.h). The time persistence costs is charged elsewhere, by
// the owning node's simulated Disk and the group-commit flushers
// (common/durability.h), so the store itself is a sorted map plus
// value-byte accounting. Keys are binary-safe strings ordered
// lexicographically; range scans serve the provider's "list pages of
// blob X" queries.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "common/dataspec.h"

namespace bs::kv {

class KvStore {
 public:
  void put(const std::string& key, Bytes value);
  std::optional<Bytes> get(const std::string& key) const;
  bool contains(const std::string& key) const;
  bool erase(const std::string& key);

  size_t size() const { return map_.size(); }
  uint64_t value_bytes() const { return value_bytes_; }

  // In-order scan of keys in [lower, upper); empty upper = to the end.
  // Returning false from the callback stops the scan.
  void scan(const std::string& lower, const std::string& upper,
            const std::function<bool(const std::string&, const Bytes&)>& fn) const;
  // All keys sharing `prefix`, in order.
  void scan_prefix(const std::string& prefix,
                   const std::function<bool(const std::string&, const Bytes&)>& fn) const;

 private:
  std::map<std::string, Bytes> map_;
  uint64_t value_bytes_ = 0;
};

}  // namespace bs::kv
