// Experiment X2 (paper §V, future work): versioning-enabled workflows.
//
// "A storage layer that supports versioning enables complex MapReduce
// workflows to run in parallel, on different snapshots of the same original
// dataset." We stage a dataset, snapshot it (version v1), overwrite part of
// it (version v2), then run two DistributedGrep jobs CONCURRENTLY — one on
// /data@v1, one on /data@v2 — through the unmodified framework (BSFS
// resolves versioned paths to BlobSeer snapshots). Validation:
//   * both jobs read consistent snapshots while sharing pages they have in
//     common (no copy of the dataset was made);
//   * running them concurrently costs far less than running them serially.
//
// Gate: exits nonzero unless the concurrent span beats the serial total
// (speedup > 1) and each concurrent job pinned the same snapshot version
// and read the same input, map count and output as its serial twin, with
// the two snapshots distinct and each the full dataset.
#include <cstdio>

#include "bench/harness.h"
#include "mr/app.h"
#include "mr/cluster.h"
#include "sim/parallel.h"

using namespace bs;
using namespace bs::bench;

namespace {

constexpr uint64_t kDatasetBytes = 32ULL * kGiB;

mr::JobConfig grep_job(mr::MapReduceApp* app, const std::string& input,
                       const std::string& out) {
  mr::JobConfig jc;
  jc.input_files = {input};
  jc.output_dir = out;
  jc.app = app;
  jc.num_reducers = 4;
  jc.cost_model = true;
  jc.record_read_size = kMiB;
  return jc;
}

// Whether two runs over the same versioned path read the same snapshot.
bool same_snapshot(const mr::JobStats& a, const mr::JobStats& b) {
  return a.input_snapshot_versions == b.input_snapshot_versions &&
         a.input_bytes == b.input_bytes && a.maps == b.maps &&
         a.output_bytes == b.output_bytes;
}

sim::Task<void> run_one(mr::MapReduceCluster* mr, mr::JobConfig jc,
                        mr::JobStats* out) {
  *out = co_await mr->run_job(std::move(jc));
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("ext2_versioning_workflow", argc, argv);
  report.say("X2: concurrent MapReduce workflows on different snapshots of\n");
  report.say("one dataset (paper §V versioning extension), 32 GB dataset\n\n");

  BsfsWorld world;
  // Stage v1, then overwrite the first half → v2. Both versions share the
  // untouched half of the pages (BlobSeer's tree sharing).
  world.sim.spawn(bsfs_stage_file(world, "/data", kDatasetBytes, 1));
  world.sim.run();
  {
    auto overwrite = [](BsfsWorld* w) -> sim::Task<void> {
      auto entry = co_await w->ns->lookup(0, "/data");
      auto blob_client = w->blobs->make_client(0);
      co_await blob_client->write(entry->blob, 0,
                                  DataSpec::pattern(2, 0, kDatasetBytes / 2));
    };
    world.sim.spawn(overwrite(&world));
    world.sim.run();
  }

  mr::DistributedGrep app1("needle"), app2("needle");
  mr::MrConfig mcfg;
  mcfg.jobtracker_node = 0;
  mcfg.tasktracker_nodes = storage_nodes(world.options.cluster);
  mr::MapReduceCluster cluster_a(world.sim, world.net, *world.fs, mcfg);
  mr::MapReduceCluster cluster_b(world.sim, world.net, *world.fs, mcfg);

  // Serial baseline.
  mr::JobStats serial_v1, serial_v2;
  world.sim.spawn(run_one(&cluster_a, grep_job(&app1, "/data@v1", "/o/s1"),
                          &serial_v1));
  world.sim.run();
  world.sim.spawn(run_one(&cluster_a, grep_job(&app1, "/data@v2", "/o/s2"),
                          &serial_v2));
  world.sim.run();

  // Concurrent run on both snapshots.
  mr::JobStats conc_v1, conc_v2;
  const double t0 = world.sim.now();
  world.sim.spawn(run_one(&cluster_a, grep_job(&app1, "/data@v1", "/o/c1"),
                          &conc_v1));
  world.sim.spawn(run_one(&cluster_b, grep_job(&app2, "/data@v2", "/o/c2"),
                          &conc_v2));
  world.sim.run();
  const double concurrent_span = world.sim.now() - t0;
  const double serial_span = serial_v1.duration + serial_v2.duration;

  Table table({"run", "snapshot", "job time (s)", "maps", "input"});
  table.add_row({"serial", "v1", Table::num(serial_v1.duration),
                 std::to_string(serial_v1.maps),
                 format_bytes(static_cast<double>(serial_v1.input_bytes))});
  table.add_row({"serial", "v2", Table::num(serial_v2.duration),
                 std::to_string(serial_v2.maps),
                 format_bytes(static_cast<double>(serial_v2.input_bytes))});
  table.add_row({"concurrent", "v1", Table::num(conc_v1.duration),
                 std::to_string(conc_v1.maps),
                 format_bytes(static_cast<double>(conc_v1.input_bytes))});
  table.add_row({"concurrent", "v2", Table::num(conc_v2.duration),
                 std::to_string(conc_v2.maps),
                 format_bytes(static_cast<double>(conc_v2.input_bytes))});
  report.table(table);
  const double speedup = serial_span / concurrent_span;
  const bool consistent =
      same_snapshot(serial_v1, conc_v1) && same_snapshot(serial_v2, conc_v2) &&
      conc_v1.input_snapshot_versions != conc_v2.input_snapshot_versions &&
      conc_v1.input_bytes == kDatasetBytes &&
      conc_v2.input_bytes == kDatasetBytes;
  report.say("\nserial total: %.1f s, concurrent span: %.1f s "
             "(speedup %.2fx; %s)\n",
             serial_span, concurrent_span, speedup,
             consistent ? "both snapshots stayed consistent"
                        : "snapshots INCONSISTENT");
  report.metric("serial_total_s", serial_span);
  report.metric("concurrent_span_s", concurrent_span);
  report.metric("speedup", speedup);
  int failures = 0;
  if (!(speedup > 1)) {
    std::fprintf(stderr,
                 "GATE FAIL: concurrent span %.1f s is not below the serial "
                 "total %.1f s\n",
                 concurrent_span, serial_span);
    ++failures;
  }
  if (!consistent) {
    std::fprintf(stderr,
                 "GATE FAIL: a concurrent job did not read the snapshot its "
                 "serial twin read\n");
    ++failures;
  }
  report.say("gate (concurrent speedup > 1, snapshots consistent): %s\n",
             failures == 0 ? "PASSED" : "FAILED");
  return failures == 0 ? 0 : 1;
}
