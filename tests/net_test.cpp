// Tests for the flow-level network: exact single-flow timing, fair sharing,
// bottleneck behavior, per-flow caps, disks, and solver invariants under
// randomized load (property-style sweep).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "net/cluster.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace bs::net {
namespace {

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.nodes_per_rack = 4;
  cfg.nic_bps = 100e6;          // round numbers for exact timing checks
  cfg.rack_uplink_bps = 400e6;
  cfg.control_latency_s = 1e-3;
  cfg.disk_read_bps = 50e6;
  cfg.disk_write_bps = 40e6;
  cfg.disk_seek_s = 0.01;
  return cfg;
}

TEST(Cluster, RackMath) {
  ClusterConfig cfg;
  cfg.num_nodes = 270;
  cfg.nodes_per_rack = 30;
  EXPECT_EQ(cfg.num_racks(), 9u);
  EXPECT_EQ(cfg.rack_of(0), 0u);
  EXPECT_EQ(cfg.rack_of(29), 0u);
  EXPECT_EQ(cfg.rack_of(30), 1u);
  EXPECT_TRUE(cfg.same_rack(0, 29));
  EXPECT_FALSE(cfg.same_rack(29, 30));
}

TEST(Network, SingleFlowUsesFullNic) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.transfer(0, 4, 100e6);  // cross-rack, 100 MB at 100 MB/s
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, TwoFlowsShareSourceNic) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n, NodeId dst) -> sim::Task<void> {
    co_await n.transfer(0, dst, 50e6);
  };
  sim.spawn(proc(net, 4));
  sim.spawn(proc(net, 5));
  sim.run();
  // Both flows share node 0's 100e6 uplink: 50 MB each at 50 MB/s.
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, TwoFlowsShareDestinationNic) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n, NodeId src) -> sim::Task<void> {
    co_await n.transfer(src, 7, 50e6);
  };
  sim.spawn(proc(net, 0));
  sim.spawn(proc(net, 1));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, IndependentFlowsDoNotInterfere) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n, NodeId src, NodeId dst) -> sim::Task<void> {
    co_await n.transfer(src, dst, 100e6);
  };
  sim.spawn(proc(net, 0, 4));
  sim.spawn(proc(net, 1, 5));
  sim.spawn(proc(net, 2, 6));
  sim.run();
  // Disjoint node pairs, uplink has room for 4 NIC-rate flows.
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, RackUplinkBecomesBottleneck) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.rack_uplink_bps = 150e6;  // < 2 NICs' worth
  Network net(sim, cfg);
  auto proc = [](Network& n, NodeId src, NodeId dst) -> sim::Task<void> {
    co_await n.transfer(src, dst, 75e6);
  };
  sim.spawn(proc(net, 0, 4));
  sim.spawn(proc(net, 1, 5));
  sim.run();
  // Two flows share the 150e6 uplink: 75 MB at 75 MB/s each.
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, SameRackAvoidsUplink) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.rack_uplink_bps = 1;  // effectively dead uplink
  Network net(sim, cfg);
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.transfer(0, 1, 100e6);  // same rack
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, MaxMinBeatsEqualSplitForUnevenDemand) {
  // Flow A (0→4) is capped elsewhere; flow B (1→4) should get the rest of
  // the destination NIC, not a naive 50%.
  sim::Simulator sim;
  Network net(sim, small_config());
  double b_done = -1;
  auto flow_a = [](Network& n) -> sim::Task<void> {
    co_await n.transfer(0, 4, 20e6, /*rate_cap=*/20e6);
  };
  auto flow_b = [](Network& n, double* done) -> sim::Task<void> {
    co_await n.transfer(1, 4, 80e6);
    *done = n.simulator().now();
  };
  sim.spawn(flow_a(net));
  sim.spawn(flow_b(net, &b_done));
  sim.run();
  // B gets 80 MB/s while A is active (and would finish exactly at 1.0 s).
  EXPECT_NEAR(b_done, 1.0, 1e-6);
}

TEST(Network, RateCapHoldsWithNoContention) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.transfer(0, 4, 50e6, /*rate_cap=*/25e6);
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 2.0, 1e-9);
}

TEST(Network, LoopbackBypassesNic) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.transfer(3, 3, 100e6);
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 100e6 / small_config().loopback_bps, 1e-9);
}

TEST(Network, SequentialFlowsAccumulateTime) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) co_await n.transfer(0, 4, 100e6);
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 3.0, 1e-9);
  EXPECT_EQ(net.flows_started(), 3u);
  EXPECT_NEAR(net.bytes_moved(), 300e6, 1);
}

TEST(Network, LateArrivalSlowsExistingFlow) {
  sim::Simulator sim;
  Network net(sim, small_config());
  double first_done = -1;
  auto first = [](Network& n, double* done) -> sim::Task<void> {
    co_await n.transfer(0, 4, 100e6);
    *done = n.simulator().now();
  };
  auto second = [](Network& n) -> sim::Task<void> {
    co_await n.simulator().delay(0.5);
    co_await n.transfer(1, 4, 100e6);
  };
  sim.spawn(first(net, &first_done));
  sim.spawn(second(net));
  sim.run();
  // First: 50 MB in [0,0.5) at full rate, remaining 50 MB at half rate
  // (shared destination NIC) → done at 1.5 s.
  EXPECT_NEAR(first_done, 1.5, 1e-6);
  // Second: 50 MB at half rate until 1.5, then 50 MB at full → 2.0 s.
  EXPECT_NEAR(sim.now(), 2.0, 1e-6);
}

TEST(Network, ControlLatencyIsConstant) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) co_await n.control(0, 7);
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 4e-3, 1e-12);
}

TEST(Disk, SequentialServiceTime) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.disk(0).write(40e6);  // 1 s at 40 MB/s + 0.01 seek
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.01, 1e-9);
}

TEST(Disk, ConcurrentRequestsQueueFifo) {
  sim::Simulator sim;
  Network net(sim, small_config());
  auto proc = [](Network& n) -> sim::Task<void> {
    co_await n.disk(0).read(50e6);  // 1 s + seek each
  };
  for (int i = 0; i < 3; ++i) sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 3.03, 1e-9);
  EXPECT_NEAR(net.disk(0).bytes_read(), 150e6, 1);
}

TEST(Network, TryTransferMatchesTransferWhenHealthy) {
  sim::Simulator sim;
  Network net(sim, small_config());
  bool ok = false;
  auto proc = [](Network& n, bool* out) -> sim::Task<void> {
    *out = co_await n.try_transfer(0, 4, 100e6);
  };
  sim.spawn(proc(net, &ok));
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Network, TryTransferFailsAgainstPoweredOffNode) {
  // The node-down RPC semantics (PR 1) apply to bulk data too: a stream
  // to or from a dead node must fail after the connection timeout, not
  // complete as if healthy — this is what feeds the MapReduce engine's
  // shuffle fetch-failure detection.
  for (const bool kill_src : {false, true}) {
    sim::Simulator sim;
    Network net(sim, small_config());
    net.set_node_up(kill_src ? 0 : 4, false);
    bool ok = true;
    auto proc = [](Network& n, bool* out) -> sim::Task<void> {
      *out = co_await n.try_transfer(0, 4, 100e6);
    };
    sim.spawn(proc(net, &ok));
    sim.run();
    EXPECT_FALSE(ok);
    // No bytes flowed; the caller only paid the connection timeout.
    EXPECT_NEAR(sim.now(), small_config().rpc_timeout_s, 1e-9);
    EXPECT_EQ(net.flows_started(), 0u);
  }
}

TEST(Network, TryTransferFailsWhenEndpointDiesMidStream) {
  sim::Simulator sim;
  Network net(sim, small_config());
  bool ok = true;
  auto proc = [](Network& n, bool* out) -> sim::Task<void> {
    *out = co_await n.try_transfer(0, 4, 100e6);  // 1 s at NIC rate
  };
  auto killer = [](Network& n) -> sim::Task<void> {
    co_await n.simulator().delay(0.5);
    n.set_node_up(4, false);  // receiver dies halfway
  };
  sim.spawn(proc(net, &ok));
  sim.spawn(killer(net));
  sim.run();
  EXPECT_FALSE(ok);  // the bytes landed on a dead node: fetch failed
}

TEST(Network, TryTransferFailsWhenEndpointPowerCyclesMidStream) {
  // Crash AND recovery inside the stream's lifetime: both endpoints look
  // up at completion, but the receiver rebooted — whatever it was
  // accumulating is gone, so the transfer must still report failure
  // (incarnation comparison, not just the up flag).
  sim::Simulator sim;
  Network net(sim, small_config());
  bool ok = true;
  auto proc = [](Network& n, bool* out) -> sim::Task<void> {
    *out = co_await n.try_transfer(0, 4, 100e6);  // 1 s at NIC rate
  };
  auto cycler = [](Network& n) -> sim::Task<void> {
    co_await n.simulator().delay(0.4);
    n.set_node_up(4, false);
    co_await n.simulator().delay(0.2);
    n.set_node_up(4, true);  // back before the stream ends
  };
  sim.spawn(proc(net, &ok));
  sim.spawn(cycler(net));
  sim.run();
  EXPECT_FALSE(ok);
}

TEST(Disk, TryOpsFailOnPoweredOffNode) {
  sim::Simulator sim;
  Network net(sim, small_config());
  net.set_node_up(0, false);
  bool read_ok = true;
  bool write_ok = true;
  auto proc = [](Network& n, bool* r, bool* w) -> sim::Task<void> {
    *r = co_await n.try_disk_read(0, 50e6);
    *w = co_await n.try_disk_write(0, 40e6);
  };
  sim.spawn(proc(net, &read_ok, &write_ok));
  sim.run();
  EXPECT_FALSE(read_ok);
  EXPECT_FALSE(write_ok);
  // A dead node issues no I/O at all (and pays no disk service time).
  EXPECT_NEAR(net.disk(0).bytes_read(), 0, 1e-9);
  EXPECT_NEAR(net.disk(0).bytes_written(), 0, 1e-9);
  EXPECT_NEAR(sim.now(), 0.0, 1e-9);
}

TEST(Network, PowerLossBumpsIncarnation) {
  sim::Simulator sim;
  Network net(sim, small_config());
  EXPECT_EQ(net.incarnation(3), 0u);
  net.set_node_up(3, false);
  EXPECT_EQ(net.incarnation(3), 1u);
  net.set_node_up(3, false);  // already down: not a new power loss
  EXPECT_EQ(net.incarnation(3), 1u);
  net.set_node_up(3, true);   // recovery alone does not bump
  EXPECT_EQ(net.incarnation(3), 1u);
  net.set_node_up(3, false);
  EXPECT_EQ(net.incarnation(3), 2u);
}

TEST(Rpc, RoundTripCostsTwoLatencies) {
  sim::Simulator sim;
  Network net(sim, small_config());
  int result = 0;
  auto proc = [](Network& n, int* out) -> sim::Task<void> {
    *out = co_await rpc(n, 0, 7, [&n]() -> sim::Task<int> {
      co_await n.simulator().delay(0.1);  // server-side work
      co_return 99;
    });
  };
  sim.spawn(proc(net, &result));
  sim.run();
  EXPECT_EQ(result, 99);
  EXPECT_NEAR(sim.now(), 0.1 + 2e-3, 1e-9);
}

TEST(ServiceQueue, SerializesAndQueues) {
  sim::Simulator sim;
  Network net(sim, small_config());
  ServiceQueue svc(sim, 0.1);
  auto proc = [](ServiceQueue& s) -> sim::Task<void> { co_await s.process(); };
  for (int i = 0; i < 5; ++i) sim.spawn(proc(svc));
  sim.run();
  EXPECT_NEAR(sim.now(), 0.5, 1e-9);
  EXPECT_EQ(svc.requests(), 5u);
}

// Property sweep: under randomized concurrent transfers, conservation holds:
// simulated completion time must be bounded below by every aggregate
// capacity constraint, and all bytes must arrive.
class NetworkLoadTest : public ::testing::TestWithParam<int> {};

TEST_P(NetworkLoadTest, ConservationAndCompletion) {
  const int seed = GetParam();
  Rng rng(seed);
  sim::Simulator sim;
  auto cfg = small_config();
  Network net(sim, cfg);

  const int num_flows = 20 + static_cast<int>(rng.below(30));
  double total_bytes = 0;
  std::vector<double> node_rx(cfg.num_nodes, 0), node_tx(cfg.num_nodes, 0);
  auto proc = [](Network& n, NodeId s, NodeId d, double bytes,
                 double start) -> sim::Task<void> {
    co_await n.simulator().delay(start);
    co_await n.transfer(s, d, bytes);
  };
  for (int i = 0; i < num_flows; ++i) {
    const NodeId s = static_cast<NodeId>(rng.below(cfg.num_nodes));
    NodeId d = static_cast<NodeId>(rng.below(cfg.num_nodes));
    if (d == s) d = (d + 1) % cfg.num_nodes;
    const double bytes = 1e6 + rng.uniform() * 50e6;
    const double start = rng.uniform() * 0.2;
    total_bytes += bytes;
    node_rx[d] += bytes;
    node_tx[s] += bytes;
    sim.spawn(proc(net, s, d, bytes, start));
  }
  sim.run();

  EXPECT_NEAR(net.bytes_moved(), total_bytes, 1.0);
  // Lower bound: the busiest NIC must move its bytes at NIC rate.
  double lower_bound = 0;
  for (uint32_t n = 0; n < cfg.num_nodes; ++n) {
    lower_bound = std::max(lower_bound, node_rx[n] / cfg.nic_bps);
    lower_bound = std::max(lower_bound, node_tx[n] / cfg.nic_bps);
  }
  EXPECT_GE(sim.now(), lower_bound - 1e-6);
  // Upper bound sanity: serializing everything through one NIC.
  EXPECT_LE(sim.now(), 0.2 + total_bytes / cfg.nic_bps + 1.0);
  EXPECT_EQ(net.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkLoadTest, ::testing::Range(1, 9));

// --- incremental solver vs. legacy oracle (PR 9) ---------------------------

// Randomized flow churn (staggered arrivals and departures, repeated paths,
// per-flow caps) with a probe that repeatedly solves the LIVE flow set with
// both backends and records the worst relative rate difference. Both code
// paths are compiled into every build; this is the standing proof that the
// path-class solver computes the same max-min allocation as the full
// per-flow progressive filling it replaced.
class SolverOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverOracleTest, IncrementalRatesMatchFullSolveUnderChurn) {
  Rng rng(GetParam());
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.per_stream_cap_bps = 30e6;  // caps bind on some rounds, not all
  Network net(sim, cfg);
  // The oracle comparison is only meaningful with the incremental solver
  // live; under the BS_LEGACY_SOLVER=1 sweep both sides would be legacy.
  if (net.legacy_solver()) GTEST_SKIP() << "BS_LEGACY_SOLVER forces legacy";

  auto xfer = [](Network& n, NodeId s, NodeId d, double bytes, double cap,
                 double start) -> sim::Task<void> {
    co_await n.simulator().delay(start);
    co_await n.transfer(s, d, bytes, cap);
  };
  const int num_flows = 60;
  for (int i = 0; i < num_flows; ++i) {
    // Half the flows reuse one of 6 fixed pairs (same-path classes with
    // several members); the rest are random pairs.
    NodeId s, d;
    if (i % 2 == 0) {
      s = static_cast<NodeId>(i % 6);
      d = static_cast<NodeId>((i % 6 + 4) % cfg.num_nodes);
    } else {
      s = static_cast<NodeId>(rng.below(cfg.num_nodes));
      d = static_cast<NodeId>(rng.below(cfg.num_nodes));
      if (d == s) d = (d + 1) % cfg.num_nodes;
    }
    const double bytes = 1e6 + rng.uniform() * 40e6;
    const double cap = (i % 5 == 0) ? 10e6 + rng.uniform() * 40e6 : 0;
    const double start = rng.uniform() * 1.5;
    sim.spawn(xfer(net, s, d, bytes, cap, start));
  }
  double max_rel_diff = 0;
  auto probe = [](Network& n, double* worst) -> sim::Task<void> {
    for (int k = 0; k < 80; ++k) {
      co_await n.simulator().delay(0.05);
      if (n.active_flows() == 0) continue;
      *worst = std::max(*worst, n.solver_oracle_max_rel_diff());
    }
  };
  sim.spawn(probe(net, &max_rel_diff));
  sim.run();

  EXPECT_LT(max_rel_diff, 1e-9);
  EXPECT_EQ(net.active_flows(), 0u);
  const SolverStats stats = net.solver_stats();
  EXPECT_GT(stats.class_solves, 0u);
  EXPECT_GT(stats.path_classes_created, 0u);
  // Aggregation actually happened: fewer classes than flows.
  EXPECT_LT(stats.path_classes_created, net.flows_started());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOracleTest, ::testing::Range(1, 6));

// Oracle probe over the live flow set that also records what the pair of
// solves (one legacy, one class) cost, read from the solver work counters.
struct OracleWork {
  double max_rel_diff = 0;
  uint64_t max_pair_levels = 0;      // legacy + class levels of one probe
  size_t max_classes = 0;            // active path classes at a probe
  uint64_t max_class_visits = 0;     // class-solver visits of one probe
  size_t classes_at_max_visits = 0;  // active classes at that probe
};

void probe_oracle(Network& net, OracleWork& w) {
  const SolverStats before = net.solver_stats();
  w.max_rel_diff = std::max(w.max_rel_diff, net.solver_oracle_max_rel_diff());
  const SolverStats after = net.solver_stats();
  EXPECT_EQ(after.legacy_solves - before.legacy_solves, 1u);
  EXPECT_EQ(after.class_solves - before.class_solves, 1u);
  w.max_pair_levels =
      std::max(w.max_pair_levels, after.levels - before.levels);
  w.max_classes = std::max(w.max_classes, after.active_path_classes);
  const uint64_t visits = after.class_visits - before.class_visits;
  if (visits > w.max_class_visits) {
    w.max_class_visits = visits;
    w.classes_at_max_visits = after.active_path_classes;
  }
}

TEST_F(SolverOracleTest, PaperShapedFanIn) {
  // The fig1 regime: the paper cluster (270 nodes, 30 per rack, a per-
  // stream cap at 0.65 x NIC), 120 readers each pulling 64 KiB-1 MiB
  // fetches from 16 random providers, starts staggered so arrivals and
  // departures interleave. Hundreds of classes over tens of levels.
  sim::Simulator sim;
  ClusterConfig cfg;
  cfg.rack_uplink_bps = 4.0e9;
  cfg.per_stream_cap_bps = 0.65 * cfg.nic_bps;
  Network net(sim, cfg);
  if (net.legacy_solver()) GTEST_SKIP() << "BS_LEGACY_SOLVER forces legacy";

  Rng rng(2010);
  auto fetch = [](Network& n, NodeId src, NodeId dst, double bytes,
                  double start) -> sim::Task<void> {
    co_await n.simulator().delay(start);
    co_await n.transfer(src, dst, bytes);
  };
  constexpr uint32_t kReaders = 120;
  constexpr uint32_t kProviders = 16;
  for (uint32_t r = 0; r < kReaders; ++r) {
    const NodeId reader = 1 + 2 * r;
    for (uint32_t p = 0; p < kProviders; ++p) {
      NodeId provider = 1 + static_cast<NodeId>(rng.below(cfg.num_nodes - 1));
      if (provider == reader) provider = provider % (cfg.num_nodes - 1) + 1;
      const double bytes = 65536.0 + rng.uniform() * (1048576.0 - 65536.0);
      sim.spawn(fetch(net, provider, reader, bytes, rng.uniform() * 0.05));
    }
  }
  OracleWork work;
  auto probe = [](Network& n, OracleWork* w) -> sim::Task<void> {
    for (int k = 0; k < 400; ++k) {
      co_await n.simulator().delay(0.0037);
      if (n.active_flows() == 0) break;
      probe_oracle(n, *w);
    }
  };
  sim.spawn(probe(net, &work));
  sim.run();

  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_LT(work.max_rel_diff, 1e-9);
  EXPECT_GE(work.max_classes, 300u);
  // Two solves ran per probe, so >= 20 levels means one reached >= 10.
  EXPECT_GE(work.max_pair_levels, 20u);
  // Bottleneck-local levels: class visits stay a small multiple of the
  // class count (seeding, one index scan per path link, cap sweeps) rather
  // than growing with levels x classes.
  EXPECT_LE(work.max_class_visits, 8u * work.classes_at_max_visits);
}

TEST_F(SolverOracleTest, SymmetricTieFreezesAcrossBottlenecksInOneLevel) {
  // Four cross-rack pairs with two flows each: all eight NIC links
  // (100 MB/s / 2) and both rack links (400 MB/s / 8) sit at exactly
  // 50 MB/s, so one level freezes every class across ten bottleneck
  // links. A reverse flow on otherwise idle links takes a second level.
  sim::Simulator sim;
  Network net(sim, small_config());
  if (net.legacy_solver()) GTEST_SKIP() << "BS_LEGACY_SOLVER forces legacy";
  std::vector<double> done;
  auto xfer = [](Network& n, NodeId s, NodeId d, double bytes,
                 std::vector<double>* out) -> sim::Task<void> {
    co_await n.transfer(s, d, bytes);
    out->push_back(n.simulator().now());
  };
  for (NodeId i = 0; i < 4; ++i) {
    for (int k = 0; k < 2; ++k) sim.spawn(xfer(net, i, 4 + i, 50e6, &done));
  }
  sim.spawn(xfer(net, 4, 0, 200e6, &done));
  OracleWork work;
  auto probe = [](Network& n, OracleWork* w) -> sim::Task<void> {
    co_await n.simulator().delay(0.25);
    probe_oracle(n, *w);
  };
  sim.spawn(probe(net, &work));
  sim.run();

  EXPECT_LT(work.max_rel_diff, 1e-9);
  EXPECT_EQ(work.max_pair_levels, 4u);  // two levels per backend
  ASSERT_EQ(done.size(), 9u);
  for (size_t i = 0; i < 8; ++i) EXPECT_NEAR(done[i], 1.0, 1e-9);
  EXPECT_NEAR(done[8], 2.0, 1e-9);
}

TEST_F(SolverOracleTest, SeveralDistinctCapsBindInOneRound) {
  // Four flows 0->4 on one 100 MB/s NIC, capped at 10/20/30 MB/s and
  // uncapped. Fair share 25 MB/s: the 10 and 20 caps bind in the same
  // round; then 70/2 = 35 binds the 30 cap; the uncapped flow gets the
  // remaining 40. Bytes proportional to rates finish everyone at t = 1.
  sim::Simulator sim;
  Network net(sim, small_config());
  if (net.legacy_solver()) GTEST_SKIP() << "BS_LEGACY_SOLVER forces legacy";
  std::vector<double> done;
  auto xfer = [](Network& n, double bytes, double cap,
                 std::vector<double>* out) -> sim::Task<void> {
    co_await n.transfer(0, 4, bytes, cap);
    out->push_back(n.simulator().now());
  };
  sim.spawn(xfer(net, 10e6, 10e6, &done));
  sim.spawn(xfer(net, 20e6, 20e6, &done));
  sim.spawn(xfer(net, 30e6, 30e6, &done));
  sim.spawn(xfer(net, 40e6, 0, &done));
  OracleWork work;
  auto probe = [](Network& n, OracleWork* w) -> sim::Task<void> {
    co_await n.simulator().delay(0.5);
    probe_oracle(n, *w);
  };
  sim.spawn(probe(net, &work));
  sim.run();

  EXPECT_LT(work.max_rel_diff, 1e-9);
  EXPECT_EQ(work.max_pair_levels, 6u);  // three levels per backend
  ASSERT_EQ(done.size(), 4u);
  for (double t : done) EXPECT_NEAR(t, 1.0, 1e-9);
}

TEST_F(SolverOracleTest, RecycledClassSlotsLeaveNoStaleIndexEntries) {
  // Long-lived flows share node 0's uplink with a chain of short
  // transfers, each on a new path. A chain transfer's class dies as the
  // next one arrives, and the instant-end solve frees its slot for the
  // transfer after, so slots are reused for different paths throughout.
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.per_stream_cap_bps = 30e6;
  Network net(sim, cfg);
  if (net.legacy_solver()) GTEST_SKIP() << "BS_LEGACY_SOLVER forces legacy";
  auto xfer = [](Network& n, NodeId s, NodeId d,
                 double bytes) -> sim::Task<void> {
    co_await n.transfer(s, d, bytes);
  };
  auto chain = [](Network& n) -> sim::Task<void> {
    for (uint32_t i = 0; i < 24; ++i) {
      const NodeId src = static_cast<NodeId>(i % 4);
      const NodeId dst = static_cast<NodeId>(6 + i % 2);
      co_await n.transfer(src, dst, 2e6 + 1e5 * i);
    }
  };
  sim.spawn(xfer(net, 0, 4, 60e6));
  sim.spawn(xfer(net, 0, 5, 45e6));
  sim.spawn(xfer(net, 1, 4, 50e6));
  sim.spawn(chain(net));
  OracleWork work;
  bool consistent = true;
  auto probe = [](Network& n, OracleWork* w,
                  bool* ok) -> sim::Task<void> {
    for (int k = 0; k < 200; ++k) {
      co_await n.simulator().delay(0.0113);
      if (n.active_flows() == 0) break;
      probe_oracle(n, *w);
      *ok = *ok && n.link_index_consistent();
    }
  };
  sim.spawn(probe(net, &work, &consistent));
  sim.run();

  EXPECT_LT(work.max_rel_diff, 1e-9);
  EXPECT_TRUE(consistent);
  EXPECT_TRUE(net.link_index_consistent());
  EXPECT_EQ(net.active_flows(), 0u);
  // No chain path repeats a live one: every transfer made a class.
  EXPECT_EQ(net.solver_stats().path_classes_created, 27u);
}

// --- warm start vs. cold solve ----------------------------------------------

// After every flush that solved, drops the warm-start log and re-solves
// cold; every class rate and the rebuilt log must equal the warm solve's.
struct ColdCheck {
  Network* net = nullptr;
  uint64_t solves_seen = 0;
  int checks = 0;
  bool ok = true;

  static void hook(void* self) {
    auto* c = static_cast<ColdCheck*>(self);
    if (c->net->solver_stats().class_solves == c->solves_seen) return;
    ++c->checks;
    c->ok = c->ok && c->net->cold_resolve_matches();
    c->solves_seen = c->net->solver_stats().class_solves;
  }
};

class WarmStartTest : public ::testing::TestWithParam<int> {};

TEST_P(WarmStartTest, EveryFlushMatchesAColdSolve) {
  // Churn on the paper cluster. Readers pull fetches whose starts fall on a
  // coarse grid of instants and whose sizes come from a few values, so
  // arrivals and departures come in same-instant bursts; a third of the
  // fetches carry one of three caps. Chains issue each transfer on a new
  // path the instant the previous one ends, recycling class slots. A busy
  // node's NIC is slowed and restored mid-run.
  Rng rng(GetParam());
  sim::Simulator sim;
  ClusterConfig cfg;
  cfg.rack_uplink_bps = 4.0e9;
  Network net(sim, cfg);
  if (net.legacy_solver()) GTEST_SKIP() << "BS_LEGACY_SOLVER forces legacy";
  ColdCheck check;
  check.net = &net;
  sim.add_flush_hook(&ColdCheck::hook, &check);

  auto fetch = [](Network& n, NodeId src, NodeId dst, double bytes,
                  double cap, double start) -> sim::Task<void> {
    co_await n.simulator().delay(start);
    co_await n.transfer(src, dst, bytes, cap);
  };
  const double caps[3] = {0.3 * cfg.nic_bps, 0.45 * cfg.nic_bps,
                          0.6 * cfg.nic_bps};
  constexpr uint32_t kReaders = 80;
  constexpr uint32_t kFetches = 12;
  for (uint32_t r = 0; r < kReaders; ++r) {
    const NodeId reader = 1 + 3 * r;
    for (uint32_t f = 0; f < kFetches; ++f) {
      NodeId src = 1 + static_cast<NodeId>(rng.below(cfg.num_nodes - 1));
      if (src == reader) src = src % (cfg.num_nodes - 1) + 1;
      const double bytes = 262144.0 * static_cast<double>(1 + rng.below(4));
      const double cap = rng.below(3) == 0 ? caps[rng.below(3)] : 0;
      sim.spawn(fetch(net, src, reader, bytes, cap,
                      0.002 * static_cast<double>(rng.below(25))));
    }
  }
  auto chain = [](Network& n, Rng* rng, NodeId dst) -> sim::Task<void> {
    for (int i = 0; i < 30; ++i) {
      const auto src = static_cast<NodeId>(rng->below(n.config().num_nodes));
      if (src == dst) continue;
      co_await n.transfer(src, dst, 65536.0 * static_cast<double>(1 + i % 3));
    }
  };
  for (NodeId dst : {0u, 2u, 269u}) sim.spawn(chain(net, &rng, dst));
  auto slow_node = [](Network& n) -> sim::Task<void> {
    co_await n.simulator().delay(0.021);
    n.set_node_perf(1, NodePerf{.nic = 0.5});
    co_await n.simulator().delay(0.02);
    n.set_node_perf(1, NodePerf{});
  };
  sim.spawn(slow_node(net));
  sim.run();

  EXPECT_TRUE(check.ok);
  EXPECT_GT(check.checks, 50);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_TRUE(net.link_index_consistent());
  // The check is not vacuous: warm starts replayed levels and freezes,
  // and scans still solved the rest.
  const SolverStats stats = net.solver_stats();
  EXPECT_GT(stats.replayed_levels, 0u);
  EXPECT_GT(stats.replayed_freezes, 0u);
  EXPECT_GT(stats.levels, stats.replayed_levels);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartTest, ::testing::Range(1, 4));

TEST(Network, BackendsAgreeOnCompletionTimesAndBytes) {
  // The same randomized workload through both solver backends must produce
  // the same physics: equal bytes moved and completion times within float
  // round-off (class-aggregated arithmetic may differ by ~1 ulp).
  auto run_backend = [](bool legacy) {
    Rng rng(1234);
    sim::Simulator sim;
    auto cfg = small_config();
    cfg.legacy_solver = legacy;
    Network net(sim, cfg);
    auto xfer = [](Network& n, NodeId s, NodeId d, double bytes,
                   double start) -> sim::Task<void> {
      co_await n.simulator().delay(start);
      co_await n.transfer(s, d, bytes);
    };
    for (int i = 0; i < 40; ++i) {
      const NodeId s = static_cast<NodeId>(rng.below(8));
      NodeId d = static_cast<NodeId>(rng.below(8));
      if (d == s) d = (d + 1) % 8;
      sim.spawn(xfer(net, s, d, 1e6 + rng.uniform() * 30e6,
                     rng.uniform() * 0.5));
    }
    sim.run();
    return std::pair<double, double>(sim.now(), net.bytes_moved());
  };
  const auto legacy = run_backend(true);
  const auto incremental = run_backend(false);
  EXPECT_NEAR(incremental.first, legacy.first,
              1e-9 * std::max(1.0, legacy.first));
  EXPECT_DOUBLE_EQ(incremental.second, legacy.second);
}

TEST(Network, RetimeDampingSkipsUnchangedDeadlines) {
  // A batch of same-instant arrivals between independent pairs: each flush
  // re-solve leaves the earliest completion unchanged once it is set, so
  // damping must absorb retimes that the legacy backend would schedule.
  sim::Simulator sim;
  Network net(sim, small_config());
  // Damping is an incremental-backend behavior; legacy always reschedules.
  if (net.legacy_solver()) GTEST_SKIP() << "BS_LEGACY_SOLVER forces legacy";
  auto xfer = [](Network& n, NodeId s, NodeId d, double start,
                 double bytes) -> sim::Task<void> {
    co_await n.simulator().delay(start);
    co_await n.transfer(s, d, bytes);
  };
  // t=0: flow A (0→4, 100 MB at a 100 MB/s NIC) completes at exactly 1.0.
  // At t=0.25 and t=0.5 (binary-exact instants, so the recomputed deadline
  // is bit-identical), larger flows arrive on independent NIC pairs; the
  // shared 400 MB/s uplink still leaves everyone at NIC rate, so each
  // arrival's re-solve leaves the earliest completion pinned at 1.0 and
  // the retime must be damped instead of rescheduled.
  sim.spawn(xfer(net, 0, 4, 0, 100e6));
  sim.spawn(xfer(net, 1, 5, 0.25, 150e6));
  sim.spawn(xfer(net, 2, 6, 0.5, 150e6));
  sim.run();
  const SolverStats stats = net.solver_stats();
  EXPECT_GT(stats.retimes_damped, 0u);
}

}  // namespace
}  // namespace bs::net
