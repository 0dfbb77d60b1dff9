// Page provider — stores page replicas on one cluster node.
//
// Write path: the page body arrives over the network (a flow), lands in the
// provider's RAM buffer, and is acknowledged per the configured
// DurabilityPolicy (common/durability.h); a background flusher persists
// buffered pages to the local disk (the paper's BerkeleyDB, timed by the
// simulated Disk). If the RAM buffer is full, incoming writes block until
// the flusher drains — this is the backpressure that makes provider write
// throughput degrade to disk speed once RAM is exhausted, and it is why
// BlobSeer's load-balanced remote writes beat HDFS's synchronous local-disk
// writes in the paper's §IV.B write benchmark.
//
// Durability spectrum on this path (ack semantics are what each level
// means *here*; bench/ext8_group_commit.cpp measures the trade):
//   kNone       (default — the paper's write-behind model) ack as soon as
//               the page is in RAM; the flusher persists pages one at a
//               time in the background. A power loss destroys every
//               buffered page: the acked-unsynced window is bounded only
//               by flusher backlog.
//   kBatched    ack when the page is in RAM *and* the acked-unsynced
//               window is at most max_records pages — the ack blocks while
//               the window is full. The flusher coalesces up to
//               max_records pages per disk write (count-or-time trigger),
//               paying one positioning overhead per batch. A power loss
//               destroys at most max_records acked pages plus the batch in
//               flight.
//   kImmediate  ack only after the page's own batch (of one) is on the
//               platter. A power loss destroys zero acked pages.
//
// Power loss discards exactly the unsynced window: pages whose batch
// reached the disk survive a plain crash (the page map models the disk
// contents); unsynced pages die with RAM, and the batch in flight dies via
// the PR-4 incarnation machinery (net::Network::try_disk_write).
//
// Read path: RAM-resident pages (recently written or LRU-cached) are served
// from memory; otherwise the page is read from disk first. Either way the
// body then flows back over the network to the client.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <optional>
#include <vector>

#include "blob/types.h"
#include "common/container.h"
#include "common/dataspec.h"
#include "common/durability.h"
#include "common/stats.h"
#include "net/network.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::blob {

struct ProviderConfig {
  net::NodeId node = 0;
  // RAM available for buffering dirty pages + caching clean ones.
  uint64_t ram_bytes = 1ULL << 30;
  // Whether clean pages stay cached in RAM after flush/read (LRU). The
  // paper-scale read benches run cold (data >> RAM), so this mostly serves
  // the cache ablation.
  bool read_cache = true;
  // When the write path acks relative to when it syncs (see file comment).
  // The default preserves the paper's write-behind semantics.
  DurabilityPolicy durability = DurabilityPolicy::none();
};

class Provider {
 public:
  Provider(sim::Simulator& sim, net::Network& net, ProviderConfig cfg);

  net::NodeId node() const { return cfg_.node; }

  // Receives one page from `client` and stores it. Returns true once the
  // page is acknowledged per cfg_.durability (see file comment); false if
  // the provider is down — at request time (the caller waits out the
  // connection timeout), mid-transfer (the bytes are discarded), or if a
  // power loss destroyed the page before its durability settled.
  // `rate_cap` caps the incoming flow's rate (used by the repair service to
  // throttle background re-replication traffic; 0 = uncapped).
  sim::Task<bool> put_page(net::NodeId client, PageKey key, DataSpec data,
                           double rate_cap = 0);

  // Sends the page back to `client`; nullopt if unknown or down (a down
  // provider costs the caller the connection timeout).
  sim::Task<std::optional<DataSpec>> get_page(net::NodeId client,
                                              PageKey key);

  // Copies one page replica straight to another provider (repair traffic:
  // disk read here if not RAM-resident, then a provider→provider flow).
  // False if either end is down or the page is unknown here.
  sim::Task<bool> replicate_to(Provider& dst, PageKey key, double rate_cap);

  // --- fault injection (called by the fault layer, not clients) ---
  //
  // A crash is fail-stop at the network level: every request fails until
  // recover(). Storage semantics: pages whose flush reached the disk
  // survive a plain crash (the page map models the disk contents); pages
  // still in the unsynced window are destroyed — exactly the window, no
  // more, no less (bytes_lost_on_power_loss accounts them). wipe_storage
  // additionally models a disk loss, after which only re-replication can
  // restore the data.
  void crash(bool wipe_storage = false);
  void recover();
  bool is_down() const { return down_; }

  // Blocks until every buffered page is on disk, forcing batches out
  // regardless of the count-or-time trigger (used by tests/benches to
  // measure full-durability time).
  sim::Task<void> drain();

  // Deletes a page replica (garbage collection). Returns true if present.
  sim::Task<bool> erase_page(net::NodeId client, PageKey key);

  // Whether this provider's store holds the page (repair's "block report":
  // a wiped-and-recovered node is up but empty, and only this tells the
  // repair service the replica needs re-creating). Local, no modeled cost.
  bool has_page(const PageKey& key) const { return store_.contains(key); }

  // --- introspection ---
  uint64_t pages_stored() const { return pages_stored_; }  // puts, ever
  size_t pages_held() const { return store_.size(); }      // replicas now
  uint64_t ram_used() const { return ram_used_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  // The durability spectrum's observable side: the unsynced window now, and
  // what power losses destroyed so far.
  uint64_t unsynced_pages() const { return dirty_.size() + inflight_.size(); }
  uint64_t unsynced_bytes() const { return unsynced_bytes_; }
  uint64_t flush_batches() const { return flush_batches_; }
  uint64_t bytes_lost_on_power_loss() const { return bytes_lost_; }
  uint64_t acked_bytes_lost_on_power_loss() const { return acked_bytes_lost_; }

 private:
  // One page awaiting its flush. `seq` orders the unsynced window:
  // synced_seq_ is the highest seq on the platter, so seq - synced_seq_ is
  // the page's depth in the window.
  struct DirtyPage {
    PageKey key;
    uint64_t size = 0;
    uint64_t seq = 0;
    double enqueued_at = 0;
  };

  // LRU bookkeeping for RAM-resident *clean* pages.
  void cache_touch(const PageKey& key, uint64_t size);
  void cache_evict_for(uint64_t need);
  bool ram_resident(const PageKey& key) const;
  bool cacheable_after_read(const PageKey& key) const;

  // True if a page with this seq has been acked already (for loss
  // accounting at power-loss time).
  bool seq_acked(uint64_t seq) const;
  void drop_unsynced(std::vector<DirtyPage>& pages);
  void advance_synced(uint64_t seq);

  sim::Task<void> flusher();
  sim::Task<void> flush_timer(double deadline);

  sim::Simulator& sim_;
  net::Network& net_;
  ProviderConfig cfg_;
  bs::unordered_map<PageKey, DataSpec> store_;  // the "disk" contents

  // Dirty queue: pages in RAM awaiting flush. dirty_seq_ maps key → seq for
  // every page that is dirty or in the in-flight batch.
  std::deque<DirtyPage> dirty_;
  std::vector<DirtyPage> inflight_;  // the batch on the platter path
  bs::unordered_map<PageKey, uint64_t> dirty_seq_;
  uint64_t next_seq_ = 0;    // last seq assigned
  uint64_t synced_seq_ = 0;  // highest seq durable on disk
  uint64_t ram_used_ = 0;
  uint64_t unsynced_bytes_ = 0;
  sim::CondVar ram_freed_;
  sim::CondVar dirty_added_;
  sim::CondVar drained_;
  sim::CondVar sync_cv_;  // notified when synced_seq_ advances (and on crash)
  bool flusher_running_ = false;
  bool force_flush_ = false;  // drain(): flush now, ignore the batch trigger

  // Clean-page LRU (front = most recent).
  std::list<std::pair<PageKey, uint64_t>> lru_;
  bs::unordered_map<PageKey, std::list<std::pair<PageKey, uint64_t>>::iterator>
      lru_index_;

  uint64_t pages_stored_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t flush_batches_ = 0;
  uint64_t bytes_lost_ = 0;
  uint64_t acked_bytes_lost_ = 0;
  bool down_ = false;

  // Obs handles (cluster-wide aggregates shared by all providers in the
  // registry; resolved once here so the data path stays lookup-free).
  obs::Tracer* tracer_;
  obs::Counter* m_put_pages_;
  obs::Counter* m_put_bytes_;
  obs::Counter* m_get_pages_;
  obs::Counter* m_get_bytes_;
  obs::Counter* m_cache_hits_;
  obs::Counter* m_cache_misses_;
  obs::Counter* m_replications_;
  GroupCommitObs gc_;
};

}  // namespace bs::blob
