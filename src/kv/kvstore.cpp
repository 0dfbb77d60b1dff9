#include "kv/kvstore.h"

namespace bs::kv {

void KvStore::put(const std::string& key, Bytes value) {
  auto [it, inserted] = map_.try_emplace(key);
  if (!inserted) value_bytes_ -= it->second.size();
  value_bytes_ += value.size();
  it->second = std::move(value);
}

std::optional<Bytes> KvStore::get(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool KvStore::contains(const std::string& key) const {
  return map_.count(key) > 0;
}

bool KvStore::erase(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  value_bytes_ -= it->second.size();
  map_.erase(it);
  return true;
}

void KvStore::scan(
    const std::string& lower, const std::string& upper,
    const std::function<bool(const std::string&, const Bytes&)>& fn) const {
  auto it = map_.lower_bound(lower);
  const auto end = upper.empty() ? map_.end() : map_.lower_bound(upper);
  for (; it != end; ++it) {
    if (!fn(it->first, it->second)) return;
  }
}

void KvStore::scan_prefix(
    const std::string& prefix,
    const std::function<bool(const std::string&, const Bytes&)>& fn) const {
  for (auto it = map_.lower_bound(prefix); it != map_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) return;
    if (!fn(it->first, it->second)) return;
  }
}

}  // namespace bs::kv
