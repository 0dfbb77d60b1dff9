// Durability spectrum for the write path — shared by the two sites where
// writes become durable: the blob provider's page flusher
// (blob/provider.h) and the HDFS DataNode's block path (hdfs/datanode.h).
//
// The paper's write benchmarks (fig3, ext1) charge every write the full
// per-op persistence cost; real deployments trade durability for
// throughput. The policy makes that trade explicit and *measurable*: each
// level defines when a write is acknowledged relative to when it is synced
// to the platter, and therefore exactly how many acknowledged bytes a
// power loss can destroy (bench/ext8_group_commit.cpp measures both sides
// of the trade; tests/group_commit_test.cpp proves the loss bound honest).
//
//   kImmediate  ack after this record's own sync. A power loss destroys
//               zero acknowledged bytes. One positioning overhead per
//               record — the full per-op cost the paper assumes.
//   kBatched    group commit: records coalesce into batches synced on a
//               count-or-time trigger (max_records / max_delay_s), one
//               positioning overhead per *batch*. Ack semantics are
//               site-specific (see each site's header), but every site
//               bounds the acknowledged-but-unsynced window by
//               max_records records plus one in-flight batch — the most a
//               power loss can destroy.
//   kNone       ack as soon as the write is buffered; syncing is
//               best-effort background work. Fastest, and a power loss
//               destroys everything not yet flushed (window unbounded by
//               policy, bounded only by flusher backlog).
#pragma once

#include <cstdint>

namespace bs::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace bs::obs

namespace bs::sim {
class Simulator;
}  // namespace bs::sim

namespace bs {

enum class DurabilityLevel : uint8_t {
  kNone = 0,
  kBatched = 1,
  kImmediate = 2,
};

struct DurabilityPolicy {
  DurabilityLevel level = DurabilityLevel::kImmediate;
  // kBatched triggers: a batch syncs when it holds max_records records OR
  // max_delay_s after its first record arrived, whichever fires first.
  // (Also the flush cadence for kNone's background sync; irrelevant for
  // kImmediate.)
  uint64_t max_records = 32;
  double max_delay_s = 0.010;

  static DurabilityPolicy none() {
    return DurabilityPolicy{DurabilityLevel::kNone, 32, 0.010};
  }
  static DurabilityPolicy batched(uint64_t max_records, double max_delay_s) {
    return DurabilityPolicy{DurabilityLevel::kBatched, max_records,
                           max_delay_s};
  }
  static DurabilityPolicy immediate() {
    return DurabilityPolicy{DurabilityLevel::kImmediate, 32, 0.010};
  }

  bool operator==(const DurabilityPolicy&) const = default;
};

const char* durability_level_name(DurabilityLevel level);

// Obs handles for the group-commit durability plane, shared by both sites
// (the provider flusher and the DataNode block syncer). Cluster-wide
// aggregates; resolve once at construction per the obs cost rule.
struct GroupCommitObs {
  obs::Counter* batches;           // kv/group_commit_batches
  obs::Counter* records;           // kv/group_commit_records
  obs::Gauge* unsynced_bytes;      // kv/unsynced_bytes (acked or buffered, not yet on platter)
  obs::Histogram* flush_latency;   // kv/flush_latency_s (record arrival → batch synced)
  obs::Counter* bytes_lost;        // kv/bytes_lost_on_power_loss
  obs::Counter* acked_bytes_lost;  // kv/acked_bytes_lost_on_power_loss
  static GroupCommitObs resolve(sim::Simulator& sim);
};

}  // namespace bs
