// perfbench — the repository's end-to-end benchmark program.
//
// Runs one paper-shaped workload on both storage back-ends (BSFS and HDFS),
// each over its own simulated copy of the paper's 270-node cluster, and
// prints one JSON result line. Everything runs in this single-threaded
// process: simulated clients are coroutines, not OS threads.
//
//   perfbench --workload <read-fanin|mapreduce|metadata-storm>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale bench|small] [--trace-out <path>]
//
// A repetition builds fresh worlds and stages inputs (timed as set-up),
// then runs the workload on BSFS and on HDFS (timed as the measured phase).
// Each repetition is followed by two set-up-only passes, so set-up gets
// more samples. Repetitions continue until --seconds of host time have
// passed; host times are reported as medians over repetitions and passes.
// With --trace 1 the repetitions alternate untraced and traced; the traced
// ones bracket the Network's instant-end flush with host timers, time every
// client call in simulated time, and give the per-layer metrics. See
// perfbench/README.md for what each metric means and which layer should
// move which end-to-end metric.
//
// Every read, write, storm op and job is checked; a wrong result makes the
// run exit nonzero. Simulated outcomes must repeat exactly from one
// repetition to the next, or the run fails as nondeterministic.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "blob/cluster.h"
#include "blob/version_manager.h"
#include "bsfs/bsfs.h"
#include "bsfs/namespace.h"
#include "common/durability.h"
#include "common/rng.h"
#include "dht/dht.h"
#include "fs/filesystem.h"
#include "hdfs/hdfs.h"
#include "hdfs/namenode.h"
#include "mr/app.h"
#include "mr/cluster.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

using namespace bs;

namespace {

constexpr uint64_t kMiB = 1ULL << 20;
constexpr uint64_t kGiB = 1ULL << 30;

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads, sizes and seeds

enum class Workload { kReadFanin, kMapReduce, kMetadataStorm };

struct Sizes {
  uint32_t fanin_instances;
  uint32_t fanin_clients;
  uint64_t fanin_bytes;  // per client
  uint32_t rtw_maps;
  uint64_t rtw_bytes_per_map;
  uint64_t grep_bytes;
  uint32_t storm_clients;
  uint32_t storm_ops;  // per client
};

// Both scales keep the paper's concurrency shape. `bench`, the default, is
// sized so one repetition takes a few host seconds: mapreduce runs table1's
// RandomTextWriter as is, but grep reads 25 GiB rather than 100 GiB (its host
// cost grows faster than its input), and storm clients run 40 ops rather
// than 100. read-fanin runs three smaller instances (128 MiB per client
// rather than 256 MiB), each on its own seed-derived placement: the solver's
// host cost depends on the placement far more than its work counters do,
// and one placement alone would make run_s swing from seed to seed. With
// 64 MiB files the clients finish before their reads drift apart and a
// solve costs a tenth as much, so smaller files would no longer measure
// the paper's regime. `small` is the self-test's shape.
Sizes sizes_for(const std::string& scale) {
  // {fan-in instances, clients, bytes each, RTW maps, bytes each,
  //  grep input, storm clients, ops each}
  if (scale == "bench") {
    return {3, 250, 128 * kMiB, 200, kGiB, 25 * kGiB, 10000, 40};
  }
  if (scale == "small") {
    return {2, 25, 16 * kMiB, 20, 64 * kMiB, kGiB, 500, 10};
  }
  die("--scale must be bench or small");
}

// Derives one input seed from the workload seed. Seed 0 keeps the
// library's default, so `--seed 0` reproduces the stock benches' inputs
// (table1's RandomTextWriter job times, fig1's placement).
uint64_t derive(uint64_t seed, uint64_t base) {
  return base ^ (seed * 0x9E3779B97F4A7C15ULL);
}

// The paper's Grid'5000 deployment: 270 nodes in 9 racks; node 0 is the
// master, storage services and clients run on nodes 1..269.
net::ClusterConfig paper_cluster() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 270;
  cfg.nodes_per_rack = 30;
  cfg.rack_uplink_bps = 4.0e9;
  cfg.per_stream_cap_bps = 0.65 * cfg.nic_bps;
  return cfg;
}

std::vector<net::NodeId> storage_nodes(const net::ClusterConfig& cfg) {
  std::vector<net::NodeId> nodes(cfg.num_nodes - 1);
  std::iota(nodes.begin(), nodes.end(), 1);
  return nodes;
}

net::NodeId client_node(const net::ClusterConfig& cfg, uint32_t i) {
  return 1 + (i % (cfg.num_nodes - 1));
}

// ---------------------------------------------------------------------------
// Output checks and failure accounting

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const char* first_failure = nullptr;
};
Tally g_tally;

void expect(bool ok, const char* what) {
  ++g_tally.attempted;
  if (ok) return;
  ++g_tally.failed;
  if (g_tally.first_failure == nullptr) g_tally.first_failure = what;
}

// A read must return exactly the pattern bytes written at that offset.
// Pattern payloads are checked by generator seed and offset, without
// materializing them.
bool read_matches(const DataSpec& got, uint64_t seed, uint64_t offset,
                  uint64_t size) {
  if (got.size() != size) return false;
  if (got.is_pattern()) return got.seed() == seed && got.offset() == offset;
  return got.content_equals(DataSpec::pattern(seed, offset, size));
}

// ---------------------------------------------------------------------------
// Per-layer probe (traced repetitions only)

enum Op { kOpen = 0, kStat, kRead, kWrite, kClose, kOpCount };
constexpr const char* kOpNames[kOpCount] = {"open", "stat", "read", "write",
                                            "close"};

struct Span {
  const char* name;
  uint32_t id;  // client index (one id per client), job index, or 0
  double start;
  double end;
};

// Histogram bucket counts, so a measured-phase delta of a registry
// histogram can be taken and its percentiles read.
struct Buckets {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;

  void add(const obs::Histogram& h, const std::vector<uint64_t>* minus) {
    if (bounds.empty()) {
      bounds = h.bounds();
      counts.assign(h.bucket_counts().size(), 0);
    }
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] += h.bucket_counts()[i] - (minus ? (*minus)[i] : 0);
    }
  }
  uint64_t total() const {
    return std::accumulate(counts.begin(), counts.end(), uint64_t{0});
  }
  // Linear interpolation inside the bucket holding rank q*total.
  double percentile(double q) const {
    const double target = q * static_cast<double>(total());
    uint64_t cum = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      const double prev = static_cast<double>(cum);
      cum += counts[i];
      if (static_cast<double>(cum) >= target) {
        const double lo = i == 0 ? 0.0 : bounds[i - 1];
        const double hi = i < bounds.size() ? bounds[i] : bounds.back();
        const double frac = (target - prev) / static_cast<double>(counts[i]);
        return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      }
    }
    return 0;
  }
};

// A p99 is reported only over at least this many samples.
constexpr uint64_t kMinP99Samples = 1000;

double sample_percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Everything one back-end reports for one repetition.
struct Probe {
  bool traced = false;
  bool setup_only = false;  // a set-up-only pass: stop before measuring
  bool measuring = false;
  double sim_s = 0;   // simulated completion of the measured phase
  double host_s = 0;  // host time of the measured phase
  // Host time inside the Network's instant-end flush, and the solves it ran.
  net::Network* net = nullptr;
  double flush_t0 = 0;
  double flush_host_s = 0;
  uint64_t solves_seen = 0;
  uint64_t solves = 0;
  double classes_sum = 0;
  double classes_max = 0;
  // Measured-phase deltas of work counters, by metric name.
  std::map<std::string, double> counters;
  std::map<net::NodeId, uint64_t> vm_shard_requests;
  Buckets transfer, kv_flush, publish, map_latency;
  std::vector<double> op_s[kOpCount];
  std::vector<Span> spans, flush_spans;
  double flush_epoch = 0;  // host time the first measured phase began
  uint64_t reader_cache_hits = 0, reader_cache_misses = 0;
  // Per-job results (mapreduce).
  double rtw_sim_s = 0, grep_sim_s = 0, rtw_host_s = 0, grep_host_s = 0;
  uint64_t maps = 0, reduces = 0, launches = 0, data_local_maps = 0;

  void op(Op kind, uint32_t id, double start, double end) {
    if (!traced) return;
    op_s[kind].push_back(end - start);
    spans.push_back({kOpNames[kind], id, start, end});
  }
};

void flush_begin(void* ctx) {
  auto* p = static_cast<Probe*>(ctx);
  if (p->measuring) p->flush_t0 = host_now();
}

void flush_end(void* ctx) {
  auto* p = static_cast<Probe*>(ctx);
  if (!p->measuring) return;
  const double t1 = host_now();
  p->flush_host_s += t1 - p->flush_t0;
  p->flush_spans.push_back(
      {"net.flush", 0, p->flush_t0 - p->flush_epoch, t1 - p->flush_epoch});
  const net::SolverStats s = p->net->solver_stats();
  if (s.class_solves != p->solves_seen) {
    p->solves += s.class_solves - p->solves_seen;
    p->solves_seen = s.class_solves;
    const double classes = static_cast<double>(s.active_path_classes);
    p->classes_sum += classes;
    p->classes_max = std::max(p->classes_max, classes);
  }
}

// ---------------------------------------------------------------------------
// Worlds

struct Params {
  uint64_t seed = 0;
  uint64_t page_size = 8 * kMiB;
  uint64_t block_size = 64 * kMiB;
  uint32_t metadata_shards = 1;
};

// Constructs the Network between two flush hooks, so a traced probe times
// exactly the Network's own flush work.
std::unique_ptr<net::Network> make_network(sim::Simulator& sim, Probe& probe) {
  if (probe.traced) sim.add_flush_hook(&flush_begin, &probe);
  auto net = std::make_unique<net::Network>(sim, paper_cluster());
  if (probe.traced) sim.add_flush_hook(&flush_end, &probe);
  probe.net = net.get();
  // Refuse to measure the reference solver that BS_LEGACY_SOLVER selects.
  if (net->legacy_solver()) {
    die("the Network runs the legacy reference solver (BS_LEGACY_SOLVER?); "
        "refusing to measure it");
  }
  return net;
}

struct BsfsWorld {
  BsfsWorld(const Params& p, Probe& probe) : params(p) {
    net = make_network(sim, probe);
    const net::ClusterConfig& cluster = net->config();
    blob::BlobSeerConfig bcfg;
    bcfg.provider_nodes = storage_nodes(cluster);
    bcfg.metadata_nodes = storage_nodes(cluster);
    bcfg.version_manager_node = 0;
    std::vector<net::NodeId> shards;
    if (p.metadata_shards > 1) {
      for (uint32_t i = 0; i < p.metadata_shards; ++i) {
        shards.push_back(client_node(cluster, i));
      }
    }
    bcfg.version_manager_nodes = shards;
    bcfg.provider_manager_node = 0;
    bcfg.provider.ram_bytes = 2 * kGiB;
    bcfg.provider.read_cache = true;
    bcfg.provider.durability = DurabilityPolicy::none();
    bcfg.manager.policy = blob::PlacementPolicy::kLeastLoaded;
    bcfg.manager.seed = derive(p.seed, bcfg.manager.seed);
    bcfg.dht.service_time_s = 50e-6;
    blobs = std::make_unique<blob::BlobSeerCluster>(sim, *net, std::move(bcfg));
    bsfs::NamespaceConfig nscfg;
    nscfg.shard_nodes = shards;
    ns = std::make_unique<bsfs::NamespaceManager>(sim, *net, nscfg);
    bsfs::BsfsConfig fcfg;
    fcfg.block_size = p.block_size;
    fcfg.page_size = p.page_size;
    fcfg.replication = 1;
    fcfg.enable_cache = true;
    fcfg.lease_ttl_s = 0;
    fs = std::make_unique<bsfs::Bsfs>(sim, *net, *blobs, *ns, fcfg);
    // Refuse to measure the centralized oracle that BS_LEGACY_VM selects.
    if (blobs->version_manager().shard_count() != p.metadata_shards ||
        ns->shard_count() != p.metadata_shards) {
      die("metadata shard count differs from the workload's (BS_LEGACY_VM?); "
          "refusing to measure it");
    }
  }

  Params params;
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<blob::BlobSeerCluster> blobs;
  std::unique_ptr<bsfs::NamespaceManager> ns;
  std::unique_ptr<bsfs::Bsfs> fs;
};

struct HdfsWorld {
  HdfsWorld(const Params& p, Probe& probe) : params(p) {
    net = make_network(sim, probe);
    hdfs::HdfsConfig cfg;
    cfg.namenode.node = 0;
    cfg.namenode.block_size = p.block_size;
    cfg.namenode.replication = 1;
    cfg.namenode.placement_seed = derive(p.seed, cfg.namenode.placement_seed);
    cfg.datanode_durability = DurabilityPolicy::immediate();
    fs = std::make_unique<hdfs::Hdfs>(sim, *net, cfg,
                                      storage_nodes(net->config()));
  }

  Params params;
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<hdfs::Hdfs> fs;
};

// Raw work counters of one world, read through public accessors and the
// world's metrics registry.
struct Snapshot {
  std::map<std::string, double> c;
  std::vector<uint64_t> transfer, kv_flush, publish;
  std::map<net::NodeId, uint64_t> vm_shards;
};

double reg(sim::Simulator& sim, const char* name) {
  return sim.metrics().counter(name).value();
}

void snapshot_common(sim::Simulator& sim, net::Network& net, Snapshot* s) {
  const net::SolverStats ss = net.solver_stats();
  s->c["sim.events"] = static_cast<double>(sim.events_processed());
  s->c["net.flows"] = static_cast<double>(net.flows_started());
  s->c["net.bytes"] = net.bytes_moved();
  s->c["net.rpcs"] = reg(sim, "net/rpcs");
  s->c["net.retimes"] = static_cast<double>(ss.retimes_scheduled);
  s->c["net.retimes_damped"] = static_cast<double>(ss.retimes_damped);
  s->c["net.disk_read_bytes"] = reg(sim, "net/disk_read_bytes");
  s->c["net.disk_write_bytes"] = reg(sim, "net/disk_write_bytes");
  s->c["kv.group_commit_batches"] = reg(sim, "kv/group_commit_batches");
  s->transfer = sim.metrics().histogram("net/transfer_s").bucket_counts();
  s->kv_flush = sim.metrics().histogram("kv/flush_latency_s").bucket_counts();
}

Snapshot snapshot(BsfsWorld& w) {
  Snapshot s;
  snapshot_common(w.sim, *w.net, &s);
  s.c["blob.pages_read"] = reg(w.sim, "blob/get_pages");
  s.c["blob.pages_written"] = reg(w.sim, "blob/put_pages");
  s.c["blob.cache_hits"] = reg(w.sim, "blob/cache_hits");
  s.c["blob.cache_misses"] = reg(w.sim, "blob/cache_misses");
  s.c["blob.vm_requests"] =
      static_cast<double>(w.blobs->version_manager().total_requests());
  s.c["dht.gets"] = static_cast<double>(w.blobs->metadata_dht().gets());
  s.c["dht.puts"] = static_cast<double>(w.blobs->metadata_dht().puts());
  s.c["bsfs.ns_requests"] = static_cast<double>(w.ns->total_requests());
  s.publish =
      w.sim.metrics().histogram("blob/publish_latency_s").bucket_counts();
  s.vm_shards = w.blobs->version_manager().requests_per_shard();
  return s;
}

Snapshot snapshot(HdfsWorld& w) {
  Snapshot s;
  snapshot_common(w.sim, *w.net, &s);
  s.c["hdfs.namenode_ops"] =
      static_cast<double>(w.fs->namenode().total_requests());
  s.c["hdfs.dn_cache_hits"] = reg(w.sim, "hdfs/dn_cache_hits");
  s.c["hdfs.dn_cache_misses"] = reg(w.sim, "hdfs/dn_cache_misses");
  return s;
}

// Brackets one measured phase of one world: host time, and (traced) the
// deltas of every work counter.
template <typename World>
class Measured {
 public:
  Measured(World& w, Probe& p) : w_(w), p_(p) {
    if (p_.traced) before_ = snapshot(w_);
    p_.measuring = true;
    p_.solves_seen = w_.net->solver_stats().class_solves;
    t0_ = host_now();
    if (p_.flush_epoch == 0) p_.flush_epoch = t0_;
  }

  // Returns the phase's host seconds.
  double finish() {
    const double host = host_now() - t0_;
    p_.measuring = false;
    p_.host_s += host;
    if (!p_.traced) return host;
    Snapshot after = snapshot(w_);
    for (const auto& [k, v] : after.c) p_.counters[k] += v - before_.c[k];
    p_.transfer.add(w_.sim.metrics().histogram("net/transfer_s"),
                    &before_.transfer);
    p_.kv_flush.add(w_.sim.metrics().histogram("kv/flush_latency_s"),
                    &before_.kv_flush);
    if (!before_.publish.empty()) {
      p_.publish.add(w_.sim.metrics().histogram("blob/publish_latency_s"),
                     &before_.publish);
    }
    for (const auto& [node, n] : after.vm_shards) {
      p_.vm_shard_requests[node] += n - before_.vm_shards[node];
    }
    return host;
  }

 private:
  World& w_;
  Probe& p_;
  Snapshot before_;
  double t0_ = 0;
};

// ---------------------------------------------------------------------------
// Shared client code

// Kept out of line: GCC 12.2 at -O2 miscompiles std::string temporaries
// built inside some coroutine bodies, and the storm coroutines call this.
[[gnu::noinline]] std::string indexed_path(const char* prefix, uint64_t i) {
  return prefix + std::to_string(i);
}

// Writes `bytes` of pattern data to a new file from the master node (an
// external loader), 8 MiB per call, checking every call.
sim::Task<void> put_file(fs::FileSystem* fs, std::string path, uint64_t bytes,
                         uint64_t seed) {
  auto client = fs->make_client(0);
  auto writer = co_await client->create(path);
  expect(writer != nullptr, "set-up create failed");
  if (writer == nullptr) co_return;
  for (uint64_t done = 0; done < bytes;) {
    const uint64_t n = std::min(8 * kMiB, bytes - done);
    const bool ok = co_await writer->write(DataSpec::pattern(seed, done, n));
    expect(ok, "set-up write failed");
    done += n;
  }
  const bool closed = co_await writer->close();
  expect(closed, "set-up close failed");
}

// Stages a BSFS file as one blob write (one version), as table1 stages its
// grep input.
sim::Task<void> bsfs_stage_file(BsfsWorld* w, std::string path, uint64_t bytes,
                                uint64_t seed) {
  auto blob_client = w->blobs->make_client(0);
  const auto desc = co_await blob_client->create(w->params.page_size, 1);
  co_await blob_client->write(desc.id, 0, DataSpec::pattern(seed, 0, bytes));
  bool ok = co_await w->ns->add_file(0, path, desc.id, w->params.block_size);
  expect(ok, "set-up add_file failed");
  ok = co_await w->ns->finalize(0, path);
  expect(ok, "set-up finalize failed");
}

// ---------------------------------------------------------------------------
// read-fanin: every client reads its own file, 1 MiB at a time (fig1).

uint64_t fanin_seed(uint64_t seed, uint32_t i) {
  return splitmix64(derive(seed, 0xF161)) + i;
}

sim::Task<void> fanin_client(sim::Simulator* sim, fs::FileSystem* fs,
                             Probe* probe, uint32_t i, std::string path,
                             uint64_t bytes, uint64_t seed, double* end) {
  auto client = fs->make_client(client_node(paper_cluster(), i));
  double t = sim->now();
  auto reader = co_await client->open(path);
  probe->op(kOpen, i, t, sim->now());
  expect(reader != nullptr && reader->size() == bytes, "open for read failed");
  if (reader == nullptr) co_return;
  for (uint64_t off = 0; off < bytes; off += kMiB) {
    const uint64_t n = std::min(kMiB, bytes - off);
    t = sim->now();
    DataSpec chunk = co_await reader->read(off, n);
    probe->op(kRead, i, t, sim->now());
    expect(read_matches(chunk, seed, off, n), "read returned wrong data");
  }
  if (auto* r = dynamic_cast<bsfs::BsfsReader*>(reader.get())) {
    probe->reader_cache_hits += r->cache_hits();
    probe->reader_cache_misses += r->cache_misses();
  }
  *end = sim->now();
}

// One instance: stages every client's file, then runs the reads. Returns
// the sum of the clients' completion times.
template <typename World>
double fanin_instance(const Sizes& sz, uint64_t seed, Probe& probe,
                      double* setup_s) {
  const double setup_t0 = host_now();
  World w(Params{seed}, probe);
  std::vector<sim::Task<void>> puts;
  for (uint32_t i = 0; i < sz.fanin_clients; ++i) {
    puts.push_back(put_file(w.fs.get(), indexed_path("/input/file-", i),
                            sz.fanin_bytes, fanin_seed(seed, i)));
  }
  w.sim.spawn(sim::when_all_limited(w.sim, std::move(puts), 16));
  w.sim.run();
  *setup_s += host_now() - setup_t0;
  if (probe.setup_only) return 0;

  std::vector<double> ends(sz.fanin_clients, 0);
  Measured<World> m(w, probe);
  const double t0 = w.sim.now();
  for (uint32_t i = 0; i < sz.fanin_clients; ++i) {
    w.sim.spawn(fanin_client(&w.sim, w.fs.get(), &probe, i,
                             indexed_path("/input/file-", i), sz.fanin_bytes,
                             fanin_seed(seed, i), &ends[i]));
  }
  w.sim.run();
  m.finish();
  double total = 0;
  for (double end : ends) total += end - t0;
  return total;
}

// Instance k of workload seed n runs on input seed n * instances + k, so
// seeds never share an instance and seed 0's first instance keeps the
// library's defaults.
template <typename World>
void run_fanin(const Sizes& sz, uint64_t seed, Probe& probe, double* setup_s) {
  double total = 0;
  for (uint32_t k = 0; k < sz.fanin_instances; ++k) {
    total += fanin_instance<World>(sz, seed * sz.fanin_instances + k, probe,
                                   setup_s);
  }
  // fig1's outcome is the mean per-client throughput, so read-fanin
  // reports the mean client completion time over all instances. It is also
  // far steadier from seed to seed than the makespan, which the single most
  // loaded HDFS datanode sets.
  probe.sim_s = total / (sz.fanin_clients * sz.fanin_instances);
}

// ---------------------------------------------------------------------------
// mapreduce: RandomTextWriter, then DistributedGrep over one shared input
// (table1), each job in a fresh world as table1 runs them.

mr::MrConfig mr_config() {
  mr::MrConfig cfg;
  cfg.jobtracker_node = 0;
  cfg.tasktracker_nodes = storage_nodes(paper_cluster());
  return cfg;
}

sim::Task<void> run_job(mr::MapReduceCluster* mr, mr::JobConfig jc,
                        mr::JobStats* out) {
  *out = co_await mr->run_job(std::move(jc));
}

// Sums the sizes of the files in `dir` (`count` receives how many).
sim::Task<void> dir_bytes(fs::FileSystem* fs, std::string dir, uint64_t* bytes,
                          uint64_t* count) {
  auto client = fs->make_client(0);
  const std::vector<std::string> names = co_await client->list(dir);
  for (const std::string& name : names) {
    auto st = co_await client->stat(name);
    expect(st.has_value(), "job output file cannot be stat'ed");
    if (!st.has_value()) continue;
    *bytes += st->size;
    ++*count;
  }
}

// Runs one job in `w` (measured) and checks it: it succeeded, ran the
// expected number of maps, and the output it reports is the output the
// file system holds.
template <typename World>
mr::JobStats measure_job(World& w, mr::MapReduceCluster& mr, Probe& probe,
                         const char* span, mr::JobConfig jc,
                         uint64_t expect_maps, double* host_s) {
  const std::string out_dir = jc.output_dir;
  mr::JobStats stats;
  {
    Measured<World> m(w, probe);
    w.sim.spawn(run_job(&mr, std::move(jc), &stats));
    w.sim.run();
    *host_s = m.finish();
  }
  expect(stats.maps == expect_maps, "job ran the wrong number of maps");
  expect(stats.map_failures == 0 && stats.reduce_failures == 0,
         "job had failed tasks");
  uint64_t bytes = 0, files = 0;
  w.sim.spawn(dir_bytes(w.fs.get(), out_dir, &bytes, &files));
  w.sim.run();
  expect(files > 0 && bytes == stats.output_bytes,
         "job output bytes differ from the files written");
  probe.maps += stats.maps;
  probe.reduces += stats.reduces;
  probe.launches += stats.launches.size();
  probe.data_local_maps += stats.data_local_maps;
  if (probe.traced) {
    probe.map_latency.add(
        w.sim.metrics().histogram(
            "mr/task_latency_s",
            {{"job", std::to_string(stats.job_id)}, {"kind", "map"}}),
        nullptr);
    probe.spans.push_back({span, stats.job_id, stats.submit_time,
                           stats.submit_time + stats.duration});
  }
  return stats;
}

template <typename World>
void run_rtw(const Sizes& sz, uint64_t seed, Probe& probe, double* setup_s) {
  const double t0 = host_now();
  World w(Params{seed}, probe);
  mr::RandomTextWriter app(sz.rtw_bytes_per_map, derive(seed, 0x7e37));
  mr::MapReduceCluster mr(w.sim, *w.net, *w.fs, mr_config());
  mr::JobConfig jc;
  jc.output_dir = "/out/rtw-" + w.fs->name();
  jc.app = &app;
  jc.num_generator_maps = sz.rtw_maps;
  jc.cost_model = true;
  *setup_s += host_now() - t0;
  if (probe.setup_only) return;
  const mr::JobStats s =
      measure_job(w, mr, probe, "mr.run_job.rtw", std::move(jc), sz.rtw_maps,
                  &probe.rtw_host_s);
  expect(s.output_bytes == sz.rtw_maps * sz.rtw_bytes_per_map,
         "RandomTextWriter wrote the wrong number of bytes");
  probe.rtw_sim_s = s.duration;
}

void stage_grep_input(BsfsWorld& w, uint64_t bytes, uint64_t seed) {
  w.sim.spawn(bsfs_stage_file(&w, "/in/huge", bytes, seed));
  w.sim.run();
}

void stage_grep_input(HdfsWorld& w, uint64_t bytes, uint64_t seed) {
  w.sim.spawn(put_file(w.fs.get(), "/in/huge", bytes, seed));
  w.sim.run();
}

template <typename World>
void run_grep(const Sizes& sz, uint64_t seed, Probe& probe, double* setup_s) {
  const double t0 = host_now();
  World w(Params{seed}, probe);
  stage_grep_input(w, sz.grep_bytes, derive(seed, 4242));
  mr::DistributedGrep app("inventurous");
  mr::MapReduceCluster mr(w.sim, *w.net, *w.fs, mr_config());
  mr::JobConfig jc;
  jc.input_files = {"/in/huge"};
  jc.output_dir = "/out/grep-" + w.fs->name();
  jc.app = &app;
  jc.num_reducers = 8;
  jc.cost_model = true;
  jc.record_read_size = kMiB;
  *setup_s += host_now() - t0;
  if (probe.setup_only) return;
  const uint64_t block = w.params.block_size;
  const mr::JobStats s =
      measure_job(w, mr, probe, "mr.run_job.grep", std::move(jc),
                  (sz.grep_bytes + block - 1) / block, &probe.grep_host_s);
  expect(s.input_bytes == sz.grep_bytes, "grep read the wrong input size");
  probe.grep_sim_s = s.duration;
}

template <typename World>
void run_mapreduce(const Sizes& sz, uint64_t seed, Probe& probe,
                   double* setup_s) {
  run_rtw<World>(sz, seed, probe, setup_s);
  run_grep<World>(sz, seed, probe, setup_s);
  probe.sim_s = probe.rtw_sim_s + probe.grep_sim_s;
}

// ---------------------------------------------------------------------------
// metadata-storm: ext10's op mix over one-page files. 40% stat, 30% open,
// 30% mutation: on BSFS an append-offset assignment plus publish at the
// version manager, on HDFS (write-once) a NameNode create plus close.

constexpr uint32_t kStormFiles = 256;
constexpr uint64_t kStormPage = 64 * 1024;

Params storm_params(uint64_t seed) {
  return Params{seed, kStormPage, 256 * 1024, 16};
}

uint64_t storm_file_seed(uint64_t seed, uint32_t f) {
  return splitmix64(derive(seed, 0x5707)) + f;
}

sim::Task<void> storm_stage_bsfs(BsfsWorld* w, uint64_t seed,
                                 std::vector<blob::BlobId>* ids) {
  auto blob_client = w->blobs->make_client(0);
  for (uint32_t i = 0; i < kStormFiles; ++i) {
    const auto desc = co_await blob_client->create(kStormPage, 1);
    co_await blob_client->write(
        desc.id, 0, DataSpec::pattern(storm_file_seed(seed, i), 0, kStormPage));
    const std::string path = indexed_path("/meta/f", i);
    bool ok = co_await w->ns->add_file(0, path, desc.id, w->params.block_size);
    expect(ok, "set-up add_file failed");
    ok = co_await w->ns->finalize(0, path);
    expect(ok, "set-up finalize failed");
    ids->push_back(desc.id);
  }
}

sim::Task<void> storm_client_bsfs(BsfsWorld* w, Probe* probe,
                                  const std::vector<blob::BlobId>* ids,
                                  uint64_t seed, uint32_t index, uint32_t ops,
                                  uint64_t* appends, double* end) {
  sim::Simulator& sim = w->sim;
  const net::NodeId node = client_node(w->net->config(), index);
  auto client = w->fs->make_client(node);
  auto& vm = w->blobs->version_manager();
  Rng rng(splitmix64(derive(seed, 0xE10) + index));
  for (uint32_t op = 0; op < ops; ++op) {
    const uint32_t f = static_cast<uint32_t>(rng.below(kStormFiles));
    const uint64_t kind = rng.below(10);
    const double t = sim.now();
    if (kind < 4) {
      auto st = co_await client->stat(indexed_path("/meta/f", f));
      probe->op(kStat, index, t, sim.now());
      expect(st.has_value() && !st->is_dir && st->size >= kStormPage &&
                 st->size % kStormPage == 0,
             "stat returned a wrong entry");
    } else if (kind < 7) {
      auto reader = co_await client->open(indexed_path("/meta/f", f));
      probe->op(kOpen, index, t, sim.now());
      expect(reader != nullptr && reader->size() >= kStormPage,
             "open returned a wrong file");
    } else {
      auto ticket = co_await vm.assign_write(
          node, (*ids)[f], blob::VersionManager::kAppendOffset, kStormPage);
      const double t_assigned = sim.now();
      probe->op(kWrite, index, t, t_assigned);
      expect(ticket.version != blob::kNoVersion &&
                 ticket.size_after == ticket.offset + kStormPage,
             "append-offset assignment returned a wrong range");
      co_await vm.commit(node, (*ids)[f], ticket.version);
      probe->op(kClose, index, t_assigned, sim.now());
      ++*appends;
    }
  }
  *end = sim.now();
}

sim::Task<void> storm_client_hdfs(HdfsWorld* w, Probe* probe, uint64_t seed,
                                  uint32_t index, uint32_t ops,
                                  uint64_t* creates, double* end) {
  sim::Simulator& sim = w->sim;
  auto client = w->fs->make_client(client_node(w->net->config(), index));
  Rng rng(splitmix64(derive(seed, 0xE10) + index));
  for (uint32_t op = 0; op < ops; ++op) {
    const uint32_t f = static_cast<uint32_t>(rng.below(kStormFiles));
    const uint64_t kind = rng.below(10);
    const double t = sim.now();
    if (kind < 4) {
      auto st = co_await client->stat(indexed_path("/meta/f", f));
      probe->op(kStat, index, t, sim.now());
      expect(st.has_value() && !st->is_dir && st->size == kStormPage,
             "stat returned a wrong entry");
    } else if (kind < 7) {
      auto reader = co_await client->open(indexed_path("/meta/f", f));
      probe->op(kOpen, index, t, sim.now());
      expect(reader != nullptr && reader->size() == kStormPage,
             "open returned a wrong file");
    } else {
      auto writer = co_await client->create(
          indexed_path("/storm/c", uint64_t{index} * ops + op));
      const double t_created = sim.now();
      probe->op(kWrite, index, t, t_created);
      expect(writer != nullptr, "create failed");
      if (writer == nullptr) continue;
      const bool closed = co_await writer->close();
      probe->op(kClose, index, t_created, sim.now());
      expect(closed, "close failed");
      ++*creates;
    }
  }
  *end = sim.now();
}

// Final-state checks: every BSFS append was published exactly once, and
// every HDFS create left one closed file.
void storm_verify_bsfs(BsfsWorld& w, const std::vector<blob::BlobId>& ids,
                       uint64_t appends) {
  uint64_t published = 0;
  for (blob::BlobId id : ids) {
    published += w.blobs->version_manager().published_version(id) - 1;
  }
  expect(published == appends, "published versions differ from appends");
}

sim::Task<void> storm_verify_hdfs(HdfsWorld* w, uint64_t creates) {
  auto client = w->fs->make_client(0);
  const auto names = co_await client->list("/storm");
  expect(names.size() == creates, "created files differ from creates");
}

void run_storm_bsfs(const Sizes& sz, uint64_t seed, Probe& probe,
                    double* setup_s) {
  const double t0 = host_now();
  BsfsWorld w(storm_params(seed), probe);
  std::vector<blob::BlobId> ids;
  w.sim.spawn(storm_stage_bsfs(&w, seed, &ids));
  w.sim.run();
  *setup_s += host_now() - t0;
  if (probe.setup_only) return;
  std::vector<uint64_t> appends(sz.storm_clients, 0);
  std::vector<double> ends(sz.storm_clients, 0);
  {
    Measured<BsfsWorld> m(w, probe);
    const double start = w.sim.now();
    for (uint32_t i = 0; i < sz.storm_clients; ++i) {
      w.sim.spawn(storm_client_bsfs(&w, &probe, &ids, seed, i, sz.storm_ops,
                                    &appends[i], &ends[i]));
    }
    w.sim.run();
    m.finish();
    probe.sim_s = *std::max_element(ends.begin(), ends.end()) - start;
  }
  storm_verify_bsfs(
      w, ids, std::accumulate(appends.begin(), appends.end(), uint64_t{0}));
}

void run_storm_hdfs(const Sizes& sz, uint64_t seed, Probe& probe,
                    double* setup_s) {
  const double t0 = host_now();
  HdfsWorld w(storm_params(seed), probe);
  for (uint32_t i = 0; i < kStormFiles; ++i) {
    w.sim.spawn(put_file(w.fs.get(), indexed_path("/meta/f", i), kStormPage,
                         storm_file_seed(seed, i)));
  }
  w.sim.run();
  *setup_s += host_now() - t0;
  if (probe.setup_only) return;
  std::vector<uint64_t> creates(sz.storm_clients, 0);
  std::vector<double> ends(sz.storm_clients, 0);
  {
    Measured<HdfsWorld> m(w, probe);
    const double start = w.sim.now();
    for (uint32_t i = 0; i < sz.storm_clients; ++i) {
      w.sim.spawn(storm_client_hdfs(&w, &probe, seed, i, sz.storm_ops,
                                    &creates[i], &ends[i]));
    }
    w.sim.run();
    m.finish();
    probe.sim_s = *std::max_element(ends.begin(), ends.end()) - start;
  }
  w.sim.spawn(storm_verify_hdfs(
      &w, std::accumulate(creates.begin(), creates.end(), uint64_t{0})));
  w.sim.run();
}

// ---------------------------------------------------------------------------
// One repetition

struct Rep {
  double setup_s = 0;
  double run_s = 0;
  Probe probe[2];  // [0] BSFS, [1] HDFS
};

void run_rep(Workload wl, const Sizes& sz, uint64_t seed, bool traced,
             bool setup_only, Rep* rep) {
  Probe& b = rep->probe[0];
  Probe& h = rep->probe[1];
  b.traced = h.traced = traced;
  b.setup_only = h.setup_only = setup_only;
  switch (wl) {
    case Workload::kReadFanin:
      run_fanin<BsfsWorld>(sz, seed, b, &rep->setup_s);
      run_fanin<HdfsWorld>(sz, seed, h, &rep->setup_s);
      break;
    case Workload::kMapReduce:
      run_mapreduce<BsfsWorld>(sz, seed, b, &rep->setup_s);
      run_mapreduce<HdfsWorld>(sz, seed, h, &rep->setup_s);
      break;
    case Workload::kMetadataStorm:
      run_storm_bsfs(sz, seed, b, &rep->setup_s);
      run_storm_hdfs(sz, seed, h, &rep->setup_s);
      break;
  }
  rep->run_s = b.host_s + h.host_s;
}

// ---------------------------------------------------------------------------
// Reporting

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Per-layer metrics of one back-end from one traced repetition. Host-time
// metrics are filled in by the caller from the median over traced reps.
void layer_metrics(const Probe& p, const char* be, bool is_bsfs,
                   std::vector<Metric>* out) {
  auto c = [&](const char* k) {
    auto it = p.counters.find(k);
    return it == p.counters.end() ? 0.0 : it->second;
  };
  auto add = [&](std::string name, double v, const char* unit) {
    out->push_back({std::move(name), v, unit});
  };
  auto sfx = [&](const char* name) { return std::string(name) + "." + be; };
  const auto p99 = [](const Buckets& b) {
    return b.total() >= kMinP99Samples ? b.percentile(0.99) : 0.0;
  };
  add(sfx("sim.events"), c("sim.events"), "count");
  add(sfx("net.solves"), static_cast<double>(p.solves), "count");
  add(sfx("net.classes_per_solve_mean"),
      ratio(p.classes_sum, static_cast<double>(p.solves)), "count");
  add(sfx("net.classes_per_solve_max"), p.classes_max, "count");
  add(sfx("net.flows"), c("net.flows"), "count");
  add(sfx("net.bytes"), c("net.bytes"), "B");
  add(sfx("net.rpcs"), c("net.rpcs"), "count");
  add(sfx("net.retime_damped_ratio"),
      ratio(c("net.retimes_damped"), c("net.retimes")), "ratio");
  add(sfx("net.transfer_p50_s"), p.transfer.percentile(0.5), "s");
  add(sfx("net.transfer_p99_s"), p99(p.transfer), "s");
  add(sfx("net.disk_read_bytes"), c("net.disk_read_bytes"), "B");
  add(sfx("net.disk_write_bytes"), c("net.disk_write_bytes"), "B");
  add(sfx("mr.maps"), static_cast<double>(p.maps), "count");
  add(sfx("mr.task_launches"), static_cast<double>(p.launches), "count");
  add(sfx("mr.useful_attempt_ratio"),
      ratio(static_cast<double>(p.maps + p.reduces),
            static_cast<double>(p.launches)),
      "ratio");
  add(sfx("mr.data_local_frac"),
      ratio(static_cast<double>(p.data_local_maps),
            static_cast<double>(p.maps)),
      "ratio");
  add(sfx("mr.map_p50_s"), p.map_latency.percentile(0.5), "s");
  add(sfx("mr.map_p99_s"), p99(p.map_latency), "s");
  add(sfx("mr.rtw_job_sim_s"), p.rtw_sim_s, "s");
  add(sfx("mr.grep_job_sim_s"), p.grep_sim_s, "s");
  add(sfx("kv.group_commit_batches"), c("kv.group_commit_batches"), "count");
  add(sfx("kv.flush_p99_s"), p99(p.kv_flush), "s");

  const std::string fs = is_bsfs ? "bsfs." : "hdfs.";
  if (is_bsfs) {
    add("blob.pages_read", c("blob.pages_read"), "count");
    add("blob.pages_written", c("blob.pages_written"), "count");
    add("blob.provider_cache_hit_ratio",
        ratio(c("blob.cache_hits"),
              c("blob.cache_hits") + c("blob.cache_misses")),
        "ratio");
    add("blob.vm_requests", c("blob.vm_requests"), "count");
    uint64_t busiest = 0;
    for (const auto& [node, n] : p.vm_shard_requests) {
      busiest = std::max(busiest, n);
    }
    add("blob.vm_busiest_shard_share",
        ratio(static_cast<double>(busiest), c("blob.vm_requests")), "ratio");
    add("blob.publish_p50_s", p.publish.percentile(0.5), "s");
    add("blob.publish_p99_s", p99(p.publish), "s");
    add("dht.gets", c("dht.gets"), "count");
    add("dht.puts", c("dht.puts"), "count");
    add("bsfs.ns_requests", c("bsfs.ns_requests"), "count");
    add("bsfs.client_cache_hit_ratio",
        ratio(static_cast<double>(p.reader_cache_hits),
              static_cast<double>(p.reader_cache_hits + p.reader_cache_misses)),
        "ratio");
  } else {
    add("hdfs.namenode_ops", c("hdfs.namenode_ops"), "count");
    add("hdfs.dn_cache_hit_ratio",
        ratio(c("hdfs.dn_cache_hits"),
              c("hdfs.dn_cache_hits") + c("hdfs.dn_cache_misses")),
        "ratio");
  }
  for (int op = 0; op < kOpCount; ++op) {
    const std::vector<double>& v = p.op_s[op];
    add(fs + kOpNames[op] + "_p50_ms", 1e3 * sample_percentile(v, 0.5), "ms");
    add(fs + kOpNames[op] + "_p99_ms",
        v.size() >= kMinP99Samples ? 1e3 * sample_percentile(v, 0.99) : 0.0,
        "ms");
  }
}

// Host-time per-layer metrics of one back-end, as medians over the traced
// repetitions.
void host_metrics(const std::vector<const Probe*>& traced, const char* be,
                  std::vector<Metric>* out) {
  std::vector<double> flush, share, per_solve, per_event, events_per_s, rtw,
      grep;
  for (const Probe* p : traced) {
    const double events = p->counters.at("sim.events");
    flush.push_back(p->flush_host_s);
    share.push_back(ratio(p->flush_host_s, p->host_s));
    per_solve.push_back(1e6 * ratio(p->flush_host_s,
                                    static_cast<double>(p->solves)));
    per_event.push_back(1e9 * ratio(p->host_s - p->flush_host_s, events));
    events_per_s.push_back(ratio(events, p->host_s));
    rtw.push_back(p->rtw_host_s);
    grep.push_back(p->grep_host_s);
  }
  auto sfx = [&](const char* name) { return std::string(name) + "." + be; };
  out->push_back({sfx("sim.events_per_host_s"), median(events_per_s), "1/s"});
  out->push_back({sfx("sim.host_ns_per_event"), median(per_event), "ns"});
  out->push_back({sfx("net.flush_host_s"), median(flush), "s"});
  out->push_back({sfx("net.flush_host_share"), median(share), "ratio"});
  out->push_back({sfx("net.host_us_per_solve"), median(per_solve), "us"});
  out->push_back({sfx("mr.rtw_host_s"), median(rtw), "s"});
  out->push_back({sfx("mr.grep_host_s"), median(grep), "s"});
}

// Writes the last traced repetition's spans as a Chrome trace-event file:
// one process per back-end in simulated time (one thread per client or
// job), one per back-end for the Network flushes in host time. A list of
// more than kMaxSpansWritten spans is thinned to every n-th client's spans,
// so the file stays small while each kept client's timeline stays whole.
constexpr size_t kMaxSpansWritten = 100000;

void write_trace(const std::string& path, const Rep& rep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die("cannot open the --trace-out file");
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  const char* sep = "";
  for (int b = 0; b < 2; ++b) {
    const char* names[2] = {b == 0 ? "bsfs (simulated time)"
                                   : "hdfs (simulated time)",
                            b == 0 ? "bsfs net flush (host time)"
                                   : "hdfs net flush (host time)"};
    const std::vector<Span>* lists[2] = {&rep.probe[b].spans,
                                         &rep.probe[b].flush_spans};
    for (int k = 0; k < 2; ++k) {
      const int pid = 2 * b + k;
      const size_t stride = 1 + lists[k]->size() / kMaxSpansWritten;
      std::fprintf(f,
                   "%s{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                   "\"args\":{\"name\":\"%s, ids divisible by %zu\"}}",
                   sep, pid, names[k], stride);
      sep = ",\n";
      for (const Span& s : *lists[k]) {
        if (s.id % stride != 0) continue;
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f}",
                     s.name, pid, s.id, 1e6 * s.start,
                     1e6 * (s.end - s.start));
      }
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void print_json(bool correct, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", g_tally.attempted, g_tally.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

struct Args {
  Workload workload = Workload::kReadFanin;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scale = "bench";
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) die("every flag takes a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      have_workload = true;
      if (v == "read-fanin") {
        a.workload = Workload::kReadFanin;
      } else if (v == "mapreduce") {
        a.workload = Workload::kMapReduce;
      } else if (v == "metadata-storm") {
        a.workload = Workload::kMetadataStorm;
      } else {
        die("--workload must be read-fanin, mapreduce or metadata-storm");
      }
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') die("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
      if (!(a.seconds > 0 && a.seconds <= 3600)) die("--seconds out of range");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") die("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--scale") {
      a.scale = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      die("unknown flag");
    }
  }
  if (!have_workload) die("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Sizes sz = sizes_for(args.scale);

  // Repeat until the measuring time is used up. In a traced run, even
  // repetitions run untraced (the overhead baseline) and odd ones traced.
  // Set-up costs a few percent of a repetition, so each repetition is
  // followed by set-up-only passes that give setup_s more samples.
  constexpr int kSetupOnlyPasses = 2;
  std::vector<Rep> reps;
  std::vector<double> setup;
  const double start = host_now();
  do {
    reps.emplace_back();
    const bool traced = args.trace && reps.size() % 2 == 0;
    run_rep(args.workload, sz, args.seed, traced, false, &reps.back());
    setup.push_back(reps.back().setup_s);
    for (int i = 0; i < kSetupOnlyPasses; ++i) {
      Rep pass;
      run_rep(args.workload, sz, args.seed, false, true, &pass);
      setup.push_back(pass.setup_s);
    }
    std::fprintf(stderr, "perfbench: rep %zu%s: setup %.4f s, run %.4f s\n",
                 reps.size(), traced ? " (traced)" : "", reps.back().setup_s,
                 reps.back().run_s);
  } while (host_now() - start < args.seconds ||
           (args.trace && reps.size() < 2));

  // Simulated outcomes and (traced) work counters must repeat exactly.
  bool deterministic = true;
  const Rep* last_traced = nullptr;
  for (const Rep& r : reps) {
    for (int b = 0; b < 2; ++b) {
      if (r.probe[b].sim_s != reps[0].probe[b].sim_s) deterministic = false;
      if (r.probe[0].traced && last_traced != nullptr &&
          r.probe[b].counters != last_traced->probe[b].counters) {
        deterministic = false;
      }
    }
    if (r.probe[0].traced) last_traced = &r;
  }
  if (!deterministic) {
    std::fprintf(stderr, "perfbench: simulated results differ between "
                         "repetitions of one seed\n");
  }
  if (g_tally.failed > 0) {
    std::fprintf(stderr,
                 "perfbench: %" PRIu64 " of %" PRIu64
                 " checked operations failed; first: %s\n",
                 g_tally.failed, g_tally.attempted, g_tally.first_failure);
  }
  const bool correct = deterministic && g_tally.failed == 0;

  std::vector<Metric> metrics;
  std::vector<double> run_untraced, run_traced;
  for (const Rep& r : reps) {
    (r.probe[0].traced ? run_traced : run_untraced).push_back(r.run_s);
  }
  if (!args.trace) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    metrics.push_back({"run_s", median(run_untraced), "s"});
    metrics.push_back({"setup_s", median(setup), "s"});
    metrics.push_back(
        {"peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"});
    metrics.push_back({"bsfs_sim_s", reps[0].probe[0].sim_s, "s"});
    metrics.push_back({"hdfs_sim_s", reps[0].probe[1].sim_s, "s"});
  } else {
    for (int b = 0; b < 2; ++b) {
      const char* be = b == 0 ? "bsfs" : "hdfs";
      std::vector<const Probe*> traced;
      for (const Rep& r : reps) {
        if (r.probe[b].traced) traced.push_back(&r.probe[b]);
      }
      layer_metrics(last_traced->probe[b], be, b == 0, &metrics);
      host_metrics(traced, be, &metrics);
    }
    metrics.push_back({"bench.trace_overhead",
                       median(run_traced) / median(run_untraced) - 1.0,
                       "ratio"});
    if (!args.trace_out.empty()) write_trace(args.trace_out, *last_traced);
  }
  print_json(correct, metrics);
  return correct ? 0 : 1;
}
