#include "blob/provider.h"

#include <algorithm>
#include <cstdio>

#include "common/assert.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bs::blob {
namespace {

std::string page_args(const PageKey& key, uint64_t bytes) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"blob\":%llu,\"bytes\":%llu",
                static_cast<unsigned long long>(key.blob),
                static_cast<unsigned long long>(bytes));
  return buf;
}

}  // namespace

Provider::Provider(sim::Simulator& sim, net::Network& net, ProviderConfig cfg)
    : sim_(sim), net_(net), cfg_(cfg), ram_freed_(sim), dirty_added_(sim),
      drained_(sim), sync_cv_(sim), gc_(GroupCommitObs::resolve(sim)) {
  BS_CHECK(cfg_.durability.max_records > 0);
  obs::MetricsRegistry& m = sim_.metrics();
  tracer_ = &sim_.tracer();
  m_put_pages_ = &m.counter("blob/put_pages");
  m_put_bytes_ = &m.counter("blob/put_bytes");
  m_get_pages_ = &m.counter("blob/get_pages");
  m_get_bytes_ = &m.counter("blob/get_bytes");
  m_cache_hits_ = &m.counter("blob/cache_hits");
  m_cache_misses_ = &m.counter("blob/cache_misses");
  m_replications_ = &m.counter("blob/replications");
}

bool Provider::ram_resident(const PageKey& key) const {
  return dirty_seq_.count(key) > 0 || lru_index_.count(key) > 0;
}

bool Provider::cacheable_after_read(const PageKey& key) const {
  // A page erased or wiped during the disk read must not enter the LRU: the
  // stale entry would count its RAM twice once the key is stored again. A
  // page re-stored meanwhile is dirty, and the flusher caches it.
  return store_.contains(key) && dirty_seq_.count(key) == 0;
}

void Provider::cache_touch(const PageKey& key, uint64_t size) {
  if (!cfg_.read_cache) return;
  auto it = lru_index_.find(key);
  if (it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (size > cfg_.ram_bytes) return;  // page larger than RAM: don't cache
  cache_evict_for(size);
  lru_.emplace_front(key, size);
  lru_index_[key] = lru_.begin();
  ram_used_ += size;
}

void Provider::cache_evict_for(uint64_t need) {
  // Evict clean LRU pages until `need` bytes fit (dirty pages are pinned).
  while (ram_used_ + need > cfg_.ram_bytes && !lru_.empty()) {
    auto& [key, size] = lru_.back();
    ram_used_ -= size;
    lru_index_.erase(key);
    lru_.pop_back();
  }
}

bool Provider::seq_acked(uint64_t seq) const {
  switch (cfg_.durability.level) {
    case DurabilityLevel::kNone:
      return true;  // acked the moment it hit RAM
    case DurabilityLevel::kBatched:
      // Acked once the window ahead of it shrank to max_records.
      return seq <= synced_seq_ + cfg_.durability.max_records;
    case DurabilityLevel::kImmediate:
      return seq <= synced_seq_;  // unsynced ⇒ never acked
  }
  return false;
}

void Provider::advance_synced(uint64_t seq) {
  if (seq > synced_seq_) {
    synced_seq_ = seq;
    sync_cv_.notify_all();
  }
}

void Provider::drop_unsynced(std::vector<DirtyPage>& pages) {
  // Power loss: these pages existed only in RAM (their flush never reached
  // the platter); destroy them and account the damage.
  for (const DirtyPage& p : pages) {
    dirty_seq_.erase(p.key);
    ram_used_ -= p.size;
    unsynced_bytes_ -= p.size;
    gc_.unsynced_bytes->add(-static_cast<double>(p.size));
    bytes_lost_ += p.size;
    gc_.bytes_lost->inc(static_cast<double>(p.size));
    if (seq_acked(p.seq)) {
      acked_bytes_lost_ += p.size;
      gc_.acked_bytes_lost->inc(static_cast<double>(p.size));
    }
    store_.erase(p.key);  // false if a wipe already took it
  }
  pages.clear();
  ram_freed_.notify_all();
}

sim::Task<bool> Provider::put_page(net::NodeId client, PageKey key,
                                   DataSpec data, double rate_cap) {
  const uint64_t size = data.size();
  BS_CHECK(size > 0);
  BS_CHECK_MSG(size <= cfg_.ram_bytes,
               "page larger than provider RAM cannot be admitted");
  if (down_) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return false;
  }
  const double t0 = sim_.now();
  // Page body travels client → provider.
  co_await net_.transfer(client, cfg_.node, static_cast<double>(size),
                         rate_cap);
  if (down_) co_return false;  // crashed mid-transfer: bytes discarded

  // Admission: wait until the page fits in RAM. Clean pages are evicted
  // first; if dirty pages alone exceed RAM we must wait for the flusher.
  cache_evict_for(size);
  while (ram_used_ + size > cfg_.ram_bytes) {
    co_await ram_freed_.wait();
    cache_evict_for(size);
  }
  // Crashed while blocked on admission: the connection died with the node.
  if (down_) co_return false;
  ram_used_ += size;

  // The page is logically stored now (write-behind persistence); the ack
  // below settles per the durability policy.
  store_.insert_or_assign(key, std::move(data));
  ++pages_stored_;
  uint64_t my_seq;
  auto dit = dirty_seq_.find(key);
  if (dit != dirty_seq_.end()) {
    // Overwrite of a still-dirty page: it keeps its queue slot (and its
    // place in the unsynced window).
    my_seq = dit->second;
  } else {
    my_seq = ++next_seq_;
    dirty_seq_.emplace(key, my_seq);
    dirty_.push_back(DirtyPage{key, size, my_seq, sim_.now()});
    unsynced_bytes_ += size;
    gc_.unsynced_bytes->add(static_cast<double>(size));
  }
  dirty_added_.notify_one();
  if (!flusher_running_) {
    flusher_running_ = true;
    sim_.spawn(flusher());
  }
  m_put_pages_->inc();
  m_put_bytes_->inc(static_cast<double>(size));

  // Ack per the durability policy (see provider.h).
  bool acked = true;
  if (cfg_.durability.level != DurabilityLevel::kNone) {
    const uint64_t window = cfg_.durability.level == DurabilityLevel::kBatched
                                ? cfg_.durability.max_records
                                : 0;
    const uint64_t need = my_seq > window ? my_seq - window : 0;
    const uint64_t inc = net_.incarnation(cfg_.node);
    while (synced_seq_ < need) {
      if (down_ || net_.incarnation(cfg_.node) != inc) {
        acked = false;  // power loss destroyed the page before its ack
        break;
      }
      co_await sync_cv_.wait();
    }
    if (down_ || net_.incarnation(cfg_.node) != inc) acked = false;
  }
  if (tracer_->enabled()) {
    tracer_->complete("blob", "blob", cfg_.node, "put_page", t0,
                      page_args(key, size));
  }
  co_return acked;
}

sim::Task<void> Provider::flush_timer(double deadline) {
  if (deadline > sim_.now()) co_await sim_.delay(deadline - sim_.now());
  dirty_added_.notify_all();  // wake the flusher to re-check its trigger
}

sim::Task<void> Provider::flusher() {
  // Persists dirty pages to disk, forever (one flusher process per
  // provider, started lazily on first write). kNone/kImmediate write one
  // page per disk op — the seed's write-behind and the paper's synchronous
  // model respectively; kBatched coalesces up to max_records pages per op
  // on a count-or-time trigger, amortizing the positioning overhead.
  while (true) {
    while (dirty_.empty()) {
      drained_.notify_all();
      co_await dirty_added_.wait();
    }
    if (cfg_.durability.level == DurabilityLevel::kBatched && !force_flush_) {
      // Count-or-time: flush when max_records pages queued or the oldest
      // queued page has waited max_delay_s, whichever fires first.
      const double deadline =
          dirty_.front().enqueued_at + cfg_.durability.max_delay_s;
      if (sim_.now() < deadline &&
          dirty_.size() < cfg_.durability.max_records) {
        sim_.spawn(flush_timer(deadline));
        while (!force_flush_ && !dirty_.empty() &&
               dirty_.size() < cfg_.durability.max_records &&
               sim_.now() < deadline) {
          co_await dirty_added_.wait();
        }
        if (dirty_.empty()) continue;  // a power loss emptied the queue
      }
    }
    // Form the batch.
    const uint64_t limit = cfg_.durability.level == DurabilityLevel::kBatched
                               ? cfg_.durability.max_records
                               : 1;
    uint64_t batch_bytes = 0;
    uint64_t last_seq = synced_seq_;
    const double opened_at = dirty_.front().enqueued_at;
    while (!dirty_.empty() && inflight_.size() < limit) {
      DirtyPage p = std::move(dirty_.front());
      dirty_.pop_front();
      last_seq = std::max(last_seq, p.seq);
      if (!store_.contains(p.key)) {
        // Deleted (GC) while waiting to flush: just release the RAM.
        dirty_seq_.erase(p.key);
        ram_used_ -= p.size;
        unsynced_bytes_ -= p.size;
        gc_.unsynced_bytes->add(-static_cast<double>(p.size));
        ram_freed_.notify_all();
        continue;
      }
      batch_bytes += p.size;
      inflight_.push_back(std::move(p));
    }
    if (inflight_.empty()) {
      advance_synced(last_seq);  // every popped page was GC'd
      continue;
    }
    const bool ok = co_await net_.try_disk_write(
        cfg_.node, static_cast<double>(batch_bytes));
    std::vector<DirtyPage> batch = std::move(inflight_);
    inflight_.clear();
    if (ok) {
      for (const DirtyPage& p : batch) {
        dirty_seq_.erase(p.key);
        unsynced_bytes_ -= p.size;
        gc_.unsynced_bytes->add(-static_cast<double>(p.size));
        // The page is clean now; keep it cached if enabled, else free the
        // RAM. (A page GC'd or wiped mid-write just releases its RAM.)
        if (cfg_.read_cache && store_.contains(p.key)) {
          lru_.emplace_front(p.key, p.size);
          lru_index_[p.key] = lru_.begin();
        } else {
          ram_used_ -= p.size;
        }
      }
      ++flush_batches_;
      gc_.batches->inc();
      gc_.records->inc(static_cast<double>(batch.size()));
      gc_.flush_latency->observe(sim_.now() - opened_at);
      advance_synced(last_seq);
      ram_freed_.notify_all();
    } else {
      // The node lost power under the batch (PR-4 incarnation machinery):
      // it never reached the platter and dies with RAM.
      drop_unsynced(batch);
    }
  }
}

sim::Task<std::optional<DataSpec>> Provider::get_page(net::NodeId client,
                                                      PageKey key) {
  if (down_) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return std::nullopt;
  }
  const double t0 = sim_.now();
  // Request reaches the provider first.
  co_await net_.control(client, cfg_.node);
  auto it = store_.find(key);
  if (it == store_.end()) {
    co_await net_.control(cfg_.node, client);
    co_return std::nullopt;
  }
  // A copy: the page may be erased or wiped while it is being served.
  DataSpec data = it->second;
  if (ram_resident(key)) {
    ++cache_hits_;
    m_cache_hits_->inc();
    // Refresh LRU position only for clean pages; dirty pages are pinned by
    // the flush queue and not in the LRU yet.
    if (dirty_seq_.count(key) == 0) cache_touch(key, data.size());
  } else {
    ++cache_misses_;
    m_cache_misses_->inc();
    co_await net_.disk(cfg_.node).read(static_cast<double>(data.size()));
    if (cacheable_after_read(key)) cache_touch(key, data.size());
  }
  // Page body travels provider → client.
  co_await net_.transfer(cfg_.node, client, static_cast<double>(data.size()));
  // Crashed while serving (mid-read): the stream resets; the client fails
  // over to another replica (symmetric with put_page's mid-transfer check).
  if (down_) co_return std::nullopt;
  m_get_pages_->inc();
  m_get_bytes_->inc(static_cast<double>(data.size()));
  if (tracer_->enabled()) {
    tracer_->complete("blob", "blob", cfg_.node, "get_page", t0,
                      page_args(key, data.size()));
  }
  co_return data;
}

sim::Task<bool> Provider::replicate_to(Provider& dst, PageKey key,
                                       double rate_cap) {
  if (down_ || dst.down_) co_return false;
  auto it = store_.find(key);
  if (it == store_.end()) co_return false;
  DataSpec data = it->second;
  if (ram_resident(key)) {
    if (dirty_seq_.count(key) == 0) cache_touch(key, data.size());
  } else {
    co_await net_.disk(cfg_.node).read(static_cast<double>(data.size()));
    if (cacheable_after_read(key)) cache_touch(key, data.size());
  }
  // put_page pays the provider→provider flow (client = this node).
  const bool ok = co_await dst.put_page(cfg_.node, key, std::move(data),
                                        rate_cap);
  if (ok) m_replications_->inc();
  co_return ok;
}

void Provider::crash(bool wipe_storage) {
  down_ = true;
  // Power loss: every page still in the unsynced window dies with RAM —
  // exactly the window, no more, no less. (The batch in flight on the disk
  // is failed by the incarnation machinery and accounted by the flusher
  // when its write resolves; pages whose batch already synced stay in the
  // store, which models the disk contents, unless the disk itself is wiped
  // below.)
  std::vector<DirtyPage> dropped(dirty_.begin(), dirty_.end());
  dirty_.clear();
  drop_unsynced(dropped);
  sync_cv_.notify_all();    // put_page ack waiters observe the crash
  dirty_added_.notify_all();  // flusher re-checks its (now empty) queue
  if (wipe_storage) {
    // Disk loss: forget every persisted page. The clean-cache LRU must be
    // released here: a stale entry for a wiped key would otherwise
    // double-count RAM (and corrupt the LRU index) when the key is
    // re-stored after recovery, e.g. by the repair service.
    store_.clear();
    for (const auto& [key, size] : lru_) ram_used_ -= size;
    lru_.clear();
    lru_index_.clear();
  }
}

void Provider::recover() { down_ = false; }

sim::Task<bool> Provider::erase_page(net::NodeId client, PageKey key) {
  if (down_) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return false;
  }
  co_await net_.control(client, cfg_.node);
  const bool present = store_.erase(key) > 0;
  if (present) {
    auto it = lru_index_.find(key);
    if (it != lru_index_.end()) {
      ram_used_ -= it->second->second;
      lru_.erase(it->second);
      lru_index_.erase(it);
    }
    // A still-dirty page keeps its queue slot; the flusher notices the
    // deletion, releases the RAM, and skips the disk write.
  }
  co_await net_.control(cfg_.node, client);
  co_return present;
}

sim::Task<void> Provider::drain() {
  // Force batches out regardless of the count-or-time trigger.
  force_flush_ = true;
  dirty_added_.notify_all();
  while (!dirty_.empty() || !inflight_.empty()) co_await drained_.wait();
  force_flush_ = false;
}

}  // namespace bs::blob
