#include "hdfs/datanode.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel.h"

namespace bs::hdfs {
namespace {

std::string block_args(BlockId id, uint64_t bytes) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"block\":%llu,\"bytes\":%llu",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(bytes));
  return buf;
}

}  // namespace

DataNode::DataNode(sim::Simulator& sim, net::Network& net, net::NodeId node,
                   uint64_t ram_bytes, DurabilityPolicy durability)
    : sim_(sim), net_(net), node_(node), ram_bytes_(ram_bytes),
      durability_(durability), sync_added_(sim), sync_cv_(sim), drained_(sim),
      gc_(GroupCommitObs::resolve(sim)) {
  BS_CHECK(durability_.max_records > 0);
  obs::MetricsRegistry& m = sim_.metrics();
  tracer_ = &sim_.tracer();
  m_blocks_received_ = &m.counter("hdfs/blocks_received");
  m_bytes_received_ = &m.counter("hdfs/bytes_received");
  m_bytes_served_ = &m.counter("hdfs/bytes_served");
  m_cache_hits_ = &m.counter("hdfs/dn_cache_hits");
  m_cache_misses_ = &m.counter("hdfs/dn_cache_misses");
  m_replications_ = &m.counter("hdfs/replications");
}

void DataNode::cache_touch(BlockId id, uint64_t size) {
  auto it = lru_index_.find(id);
  if (it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (size > ram_bytes_) return;
  while (ram_used_ + size > ram_bytes_ && !lru_.empty()) {
    ram_used_ -= lru_.back().second;
    lru_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(id, size);
  lru_index_[id] = lru_.begin();
  ram_used_ += size;
}

bool DataNode::seq_acked(uint64_t seq) const {
  switch (durability_.level) {
    case DurabilityLevel::kNone:
      return true;  // acked on transfer alone
    case DurabilityLevel::kBatched:
      return seq <= synced_seq_ + durability_.max_records;
    case DurabilityLevel::kImmediate:
      return seq <= synced_seq_;  // unsynced ⇒ never acked
  }
  return false;
}

void DataNode::advance_synced(uint64_t seq) {
  if (seq > synced_seq_) {
    synced_seq_ = seq;
    sync_cv_.notify_all();
  }
}

void DataNode::drop_unsynced(std::vector<UnsyncedBlock>& blocks) {
  // Power loss: these blocks existed only in the page cache (their hsync
  // never reached the platter); destroy them and account the damage.
  for (const UnsyncedBlock& b : blocks) {
    unsynced_bytes_ -= b.size;
    gc_.unsynced_bytes->add(-static_cast<double>(b.size));
    bytes_lost_ += b.size;
    gc_.bytes_lost->inc(static_cast<double>(b.size));
    if (seq_acked(b.seq)) {
      acked_bytes_lost_ += b.size;
      gc_.acked_bytes_lost->inc(static_cast<double>(b.size));
    }
    if (store_.contains(b.id)) forget_block(b.id);
  }
  blocks.clear();
}

sim::Task<bool> DataNode::receive_block(net::NodeId from, BlockId id,
                                        DataSpec data, double rate_cap) {
  if (down_) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return false;
  }
  const uint64_t size = data.size();
  const double bytes = static_cast<double>(size);
  const double t0 = sim_.now();
  if (durability_.level == DurabilityLevel::kImmediate) {
    // Streaming write-through: the network transfer and the disk write run
    // concurrently; the block is acked when both finish (hsync per block).
    std::vector<sim::Task<void>> legs;
    legs.push_back(net_.transfer(from, node_, bytes, rate_cap));
    legs.push_back(net_.disk(node_).write(bytes));
    co_await sim::when_all(sim_, std::move(legs));
    if (down_) co_return false;  // crashed mid-transfer: bytes discarded
    store_.insert_or_assign(id, std::move(data));
    cache_touch(id, size);  // freshly written blocks sit in page cache
    ++blocks_stored_;
    m_blocks_received_->inc();
    m_bytes_received_->inc(bytes);
    if (tracer_->enabled()) {
      tracer_->complete("hdfs", "hdfs", node_, "recv_block", t0,
                        block_args(id, size));
    }
    co_return true;
  }

  // hflush path (kBatched/kNone): the block completes on the transfer
  // alone; the background syncer hsyncs it later.
  co_await net_.transfer(from, node_, bytes, rate_cap);
  if (down_) co_return false;  // crashed mid-transfer: bytes discarded
  store_.insert_or_assign(id, std::move(data));
  cache_touch(id, size);
  ++blocks_stored_;
  const uint64_t my_seq = ++next_seq_;
  unsynced_.push_back(UnsyncedBlock{id, size, my_seq, sim_.now()});
  unsynced_bytes_ += size;
  gc_.unsynced_bytes->add(bytes);
  sync_added_.notify_one();
  if (!syncer_running_) {
    syncer_running_ = true;
    sim_.spawn(syncer());
  }
  m_blocks_received_->inc();
  m_bytes_received_->inc(bytes);

  // Ack per the durability policy: kNone immediately; kBatched once the
  // acked-unsynced window is at most max_records blocks.
  bool acked = true;
  if (durability_.level == DurabilityLevel::kBatched) {
    const uint64_t window = durability_.max_records;
    const uint64_t need = my_seq > window ? my_seq - window : 0;
    const uint64_t inc = net_.incarnation(node_);
    while (synced_seq_ < need) {
      if (down_ || net_.incarnation(node_) != inc) {
        acked = false;  // power loss destroyed the block before its ack
        break;
      }
      co_await sync_cv_.wait();
    }
    if (down_ || net_.incarnation(node_) != inc) acked = false;
  }
  if (tracer_->enabled()) {
    tracer_->complete("hdfs", "hdfs", node_, "recv_block", t0,
                      block_args(id, size));
  }
  co_return acked;
}

sim::Task<void> DataNode::sync_timer(double deadline) {
  if (deadline > sim_.now()) co_await sim_.delay(deadline - sim_.now());
  sync_added_.notify_all();  // wake the syncer to re-check its trigger
}

sim::Task<void> DataNode::syncer() {
  // Background hsync (kBatched/kNone): coalesces up to max_records blocks
  // per disk write on the count-or-time trigger, one positioning overhead
  // per batch.
  while (true) {
    while (unsynced_.empty()) {
      drained_.notify_all();
      co_await sync_added_.wait();
    }
    if (!force_sync_) {
      const double deadline =
          unsynced_.front().enqueued_at + durability_.max_delay_s;
      if (sim_.now() < deadline &&
          unsynced_.size() < durability_.max_records) {
        sim_.spawn(sync_timer(deadline));
        while (!force_sync_ && !unsynced_.empty() &&
               unsynced_.size() < durability_.max_records &&
               sim_.now() < deadline) {
          co_await sync_added_.wait();
        }
        if (unsynced_.empty()) continue;  // a power loss emptied the queue
      }
    }
    // Form the batch.
    uint64_t batch_bytes = 0;
    uint64_t last_seq = synced_seq_;
    const double opened_at = unsynced_.front().enqueued_at;
    while (!unsynced_.empty() && inflight_.size() < durability_.max_records) {
      UnsyncedBlock b = unsynced_.front();
      unsynced_.pop_front();
      last_seq = std::max(last_seq, b.seq);
      if (!store_.contains(b.id)) {
        // Forgotten (pipeline teardown) while waiting for its hsync.
        unsynced_bytes_ -= b.size;
        gc_.unsynced_bytes->add(-static_cast<double>(b.size));
        continue;
      }
      batch_bytes += b.size;
      inflight_.push_back(b);
    }
    if (inflight_.empty()) {
      advance_synced(last_seq);  // every popped block was forgotten
      continue;
    }
    const bool ok = co_await net_.try_disk_write(
        node_, static_cast<double>(batch_bytes));
    std::vector<UnsyncedBlock> batch = std::move(inflight_);
    inflight_.clear();
    if (ok) {
      for (const UnsyncedBlock& b : batch) {
        unsynced_bytes_ -= b.size;
        gc_.unsynced_bytes->add(-static_cast<double>(b.size));
      }
      ++sync_batches_;
      gc_.batches->inc();
      gc_.records->inc(static_cast<double>(batch.size()));
      gc_.flush_latency->observe(sim_.now() - opened_at);
      advance_synced(last_seq);
    } else {
      // The node lost power under the batch (PR-4 incarnation machinery):
      // it never reached the platter and dies with the page cache.
      drop_unsynced(batch);
    }
  }
}

sim::Task<std::optional<DataSpec>> DataNode::read_block(net::NodeId client,
                                                        BlockId id,
                                                        uint64_t offset,
                                                        uint64_t length) {
  if (down_) {
    co_await sim_.delay(net_.config().rpc_timeout_s);
    co_return std::nullopt;
  }
  const double t0 = sim_.now();
  co_await net_.control(client, node_);
  auto it = store_.find(id);
  if (it == store_.end()) {
    co_await net_.control(node_, client);
    co_return std::nullopt;
  }
  const uint64_t block_size = it->second.size();
  BS_CHECK(offset <= block_size);
  length = std::min(length, block_size - offset);
  DataSpec out = it->second.slice(offset, length);
  if (cache_contains(id)) {
    // Served from the page cache: network only.
    ++cache_hits_;
    m_cache_hits_->inc();
    cache_touch(id, block_size);
    co_await net_.transfer(node_, client, static_cast<double>(length));
  } else {
    ++cache_misses_;
    m_cache_misses_->inc();
    // Disk read and network send overlap (streaming).
    std::vector<sim::Task<void>> legs;
    legs.push_back(net_.disk(node_).read(static_cast<double>(length)));
    legs.push_back(net_.transfer(node_, client, static_cast<double>(length)));
    co_await sim::when_all(sim_, std::move(legs));
    // A block forgotten or wiped during the read stays out of the cache.
    if (store_.contains(id)) cache_touch(id, block_size);
  }
  // Crashed while serving (mid-read): the stream resets; the reader fails
  // over to another replica.
  if (down_) co_return std::nullopt;
  bytes_served_ += length;
  m_bytes_served_->inc(static_cast<double>(length));
  if (tracer_->enabled()) {
    tracer_->complete("hdfs", "hdfs", node_, "read_block", t0,
                      block_args(id, length));
  }
  co_return out;
}

sim::Task<bool> DataNode::replicate_to(DataNode& dst, BlockId id,
                                       double rate_cap) {
  if (down_ || dst.down_) co_return false;
  auto it = store_.find(id);
  if (it == store_.end()) co_return false;
  DataSpec block = it->second;
  if (cache_contains(id)) {
    ++cache_hits_;
    cache_touch(id, block.size());
  } else {
    ++cache_misses_;
    co_await net_.disk(node_).read(static_cast<double>(block.size()));
    if (store_.contains(id)) cache_touch(id, block.size());
  }
  // receive_block pays the dn→dn flow and the destination disk write.
  const bool ok =
      co_await dst.receive_block(node_, id, std::move(block), rate_cap);
  if (ok) m_replications_->inc();
  co_return ok;
}

void DataNode::forget_block(BlockId id) {
  store_.erase(id);
  auto it = lru_index_.find(id);
  if (it != lru_index_.end()) {
    ram_used_ -= it->second->second;
    lru_.erase(it->second);
    lru_index_.erase(it);
  }
}

void DataNode::crash(bool wipe_storage) {
  down_ = true;
  // Power loss: the unsynced window dies with the page cache — exactly the
  // window, no more, no less. (The batch in flight is failed by the
  // incarnation machinery and accounted by the syncer when its disk write
  // resolves; synced blocks survive unless the disk is wiped below.)
  std::vector<UnsyncedBlock> dropped(unsynced_.begin(), unsynced_.end());
  unsynced_.clear();
  drop_unsynced(dropped);
  sync_cv_.notify_all();    // receive_block ack waiters observe the crash
  sync_added_.notify_all();  // syncer re-checks its (now empty) queue
  if (wipe_storage) {
    store_.clear();
    lru_.clear();
    lru_index_.clear();
    ram_used_ = 0;
  }
}

sim::Task<void> DataNode::drain() {
  if (durability_.level == DurabilityLevel::kImmediate) co_return;
  force_sync_ = true;
  sync_added_.notify_all();
  while (!unsynced_.empty() || !inflight_.empty()) co_await drained_.wait();
  force_sync_ = false;
}

}  // namespace bs::hdfs
