// The version manager — BlobSeer's control plane for versions.
//
// It assigns version numbers to writers (serializing concurrent writes to
// the same blob into a total order), tracks each blob's write history and
// sizes, and publishes versions strictly in order: version v becomes
// visible to readers only after (a) its writer reported data+metadata
// completion and (b) v-1 is published. Readers ask it for the latest
// published version (a tiny request — the heavy metadata lookups go to the
// DHT, which is the design point the paper contrasts with HDFS's NameNode).
//
// Sharding (PR 10): the per-blob total order never needed a single global
// server — only a single serial point PER BLOB. When `shard_nodes` lists
// more than one node, each blob's version chain (assign/commit/publish/
// latest) lives on exactly one ring owner (consistent hashing over the blob
// id, `dht::HashRing`), so distinct blobs scale across shards while the
// per-blob ordering semantics are byte-identical to the centralized
// manager. The 1-shard configuration (empty `shard_nodes`) IS the
// centralized manager; tests and ext10 build it as the cross-check oracle
// for the sharded one.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "blob/types.h"
#include "common/container.h"
#include "dht/ring.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::blob {

struct VersionManagerConfig {
  net::NodeId node = 0;        // cluster node hosting the service
  // Sharded deployment: nodes hosting per-blob serial points (each blob is
  // owned by one of these, chosen by consistent hashing). Empty = {node},
  // the centralized single-server manager.
  std::vector<net::NodeId> shard_nodes;
  double service_time_s = 80e-6;
};

class VersionManager {
 public:
  VersionManager(sim::Simulator& sim, net::Network& net,
                 VersionManagerConfig cfg);

  // --- client-facing RPCs (all model control latency + service time) ---

  sim::Task<BlobDescriptor> create_blob(net::NodeId client, uint64_t page_size,
                                        uint32_t replication);

  // Assigns the next version for a write at `offset` (bytes, page-aligned)
  // of `size` bytes. Pass offset = kAppendOffset to append at the current
  // end (the VM resolves the offset against the latest *assigned* size, so
  // concurrent appends get disjoint ranges — the paper's §V extension).
  static constexpr uint64_t kAppendOffset = ~0ULL;
  sim::Task<WriteTicket> assign_write(net::NodeId client, BlobId blob,
                                      uint64_t offset, uint64_t size);

  // Writer finished storing pages + metadata for `version`.
  sim::Task<void> commit(net::NodeId client, BlobId blob, Version version);

  // Blocks until `version` is published (write() uses this for
  // read-your-write semantics).
  sim::Task<void> wait_published(net::NodeId client, BlobId blob,
                                 Version version);

  // Latest published version (readers start here).
  sim::Task<VersionInfo> latest(net::NodeId client, BlobId blob);
  // Full write history (versions 1..latest assigned) — consumed by GC.
  sim::Task<std::vector<WriteRecord>> full_history(net::NodeId client,
                                                   BlobId blob);
  // Marks versions below `keep_from` pruned: their info becomes
  // unavailable (version_info -> nullopt), so readers can no longer open
  // them. keep_from must be published. Returns the new watermark.
  //
  // `pin_cap`, when set, is evaluated HERE, at processing time, with no
  // suspension between evaluation and the watermark flip: the effective
  // keep_from becomes min(keep_from, pin_cap()) (kNoVersion = no
  // constraint). This is how GC policy layers (fault::RetentionService
  // consulting the fs::SnapshotRegistry) make their pin checks atomic
  // against their own in-flight prune — a pin registered any time before
  // the prune executes is honored, even if it appeared after the caller
  // decided on keep_from several RPC hops ago. The pin check runs on the
  // blob's owner shard, which is the blob's serial point — sharding does
  // not weaken the atomicity.
  sim::Task<Version> prune(net::NodeId client, BlobId blob, Version keep_from,
                           const std::function<Version()>& pin_cap = nullptr);
  // Info for a specific published version; nullopt if not published/known.
  sim::Task<std::optional<VersionInfo>> version_info(net::NodeId client,
                                                     BlobId blob, Version v);
  sim::Task<BlobDescriptor> describe(net::NodeId client, BlobId blob);

  // --- local introspection (no modeled cost; used by tests/benches) ---
  Version published_version(BlobId blob) const;
  uint64_t total_requests() const;
  size_t queue_depth() const;
  size_t shard_count() const { return shards_.size(); }
  // The node owning `blob`'s serial point.
  net::NodeId shard_node(BlobId blob) const;
  // Requests served per shard node, sorted by node (observable surface).
  std::map<net::NodeId, uint64_t> requests_per_shard() const;

 private:
  struct BlobState {
    BlobDescriptor desc;
    // Ascending by version, 1-based, append-only: records are never
    // modified or erased (prune and GC only move watermarks), so write
    // tickets share this log and read their prefix instead of copying it.
    std::shared_ptr<std::vector<WriteRecord>> history =
        std::make_shared<std::vector<WriteRecord>>();
    Version next_version = 1;          // next to assign
    Version published = kNoVersion;    // highest published
    Version pruned_below = 1;          // versions < this were GC'ed
    uint64_t assigned_size = 0;        // size after the latest assigned write
    std::set<Version> committed;       // committed but not yet published
    std::unique_ptr<sim::CondVar> publish_cv;
    // Assignment time per in-flight version, consumed when it publishes
    // (feeds the publish-latency histogram).
    bs::unordered_map<Version, double> assigned_at;
  };

  // One per-blob serial point host: its own service queue saturates
  // independently of the others (the whole point of the refactor).
  struct Shard {
    net::NodeId node = 0;
    std::unique_ptr<net::ServiceQueue> queue;
    uint64_t requests = 0;
    obs::Counter* m_requests = nullptr;   // blob/vm_requests{shard=i}
    obs::Histogram* h_publish = nullptr;  // blob/publish_latency_s{shard=i}
  };

  VersionInfo info_at(const BlobState& b, Version v) const;
  BlobState& state_of(BlobId blob);
  Shard& shard_of(BlobId blob);
  const Shard& shard_of(BlobId blob) const;

  sim::Simulator& sim_;
  net::Network& net_;
  VersionManagerConfig cfg_;
  std::vector<Shard> shards_;
  dht::HashRing ring_;                      // blob id -> owner node
  std::map<net::NodeId, size_t> shard_index_;  // owner node -> shards_ index
  bs::unordered_map<BlobId, BlobState> blobs_;
  BlobId next_blob_id_ = 1;

  // Obs handles (resolved once at construction; per-shard handles live in
  // the Shard structs — all registered in the constructor, never inside a
  // coroutine body).
  obs::Tracer* tracer_;
  obs::Counter* m_requests_;
  obs::Histogram* h_publish_s_;
};

}  // namespace bs::blob
