#include "common/durability.h"

#include "obs/metrics.h"
#include "sim/simulator.h"

namespace bs {

const char* durability_level_name(DurabilityLevel level) {
  switch (level) {
    case DurabilityLevel::kNone:
      return "none";
    case DurabilityLevel::kBatched:
      return "batched";
    case DurabilityLevel::kImmediate:
      return "immediate";
  }
  return "?";
}

GroupCommitObs GroupCommitObs::resolve(sim::Simulator& sim) {
  obs::MetricsRegistry& m = sim.metrics();
  return GroupCommitObs{
      .batches = &m.counter("kv/group_commit_batches"),
      .records = &m.counter("kv/group_commit_records"),
      .unsynced_bytes = &m.gauge("kv/unsynced_bytes"),
      .flush_latency = &m.histogram("kv/flush_latency_s"),
      .bytes_lost = &m.counter("kv/bytes_lost_on_power_loss"),
      .acked_bytes_lost = &m.counter("kv/acked_bytes_lost_on_power_loss"),
  };
}

}  // namespace bs
