// Group-commit triggers and the ack contract under power loss, on the blob
// provider's page flusher (the count-or-time site, blob/provider.h). One
// table of policies: the count trigger fires before the timer, the timer
// fires before the count, kImmediate syncs one page per batch, a crash
// before the sync loses exactly the unsynced window (and only the acked
// part that the policy allows), and a crash after the ack loses nothing.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "blob/provider.h"
#include "common/durability.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace bs::blob {
namespace {

constexpr net::NodeId kClient = 0;
constexpr net::NodeId kNode = 1;
constexpr uint64_t kPage = 1000;
constexpr double kNoCrash = -1;

net::ClusterConfig tiny_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.nodes_per_rack = 2;
  return cfg;
}

PageKey page_key(uint64_t i) { return PageKey{1, i, 1}; }

struct Ack {
  int result = 0;  // 0 = unresolved, 1 = acked, 2 = refused
  double at = -1;  // sim time the ack resolved
};

sim::Task<void> one_put(sim::Simulator* sim, Provider* p, uint64_t i,
                        Ack* ack) {
  const bool ok = co_await p->put_page(kClient, page_key(i),
                                       DataSpec::pattern(i, 0, kPage));
  ack->result = ok ? 1 : 2;
  ack->at = sim->now();
}

// Power loss as the fault layer delivers it: the node goes down first
// (bumping its incarnation, which fails the batch on the disk), then the
// provider drops its RAM.
sim::Task<void> crash_at(sim::Simulator* sim, net::Network* net, Provider* p,
                         double at) {
  co_await sim->delay(at);
  net->set_node_up(kNode, false);
  p->crash();
}

struct GroupCommitCase {
  std::string name;
  DurabilityPolicy policy;
  uint64_t pages;    // concurrent put_page calls at t=0
  double crash_s;    // kNoCrash = no power loss
  // (sim time, kv/group_commit_batches at that time): pins which trigger
  // closed the batch.
  std::vector<std::pair<double, uint64_t>> probes;
  double min_ack_s;  // every acknowledged put resolved at or after this
  // End state.
  uint64_t batches;
  uint64_t records;
  uint64_t acked;             // puts that resolved true; the rest are refused
  uint64_t lost_pages;        // bytes_lost_on_power_loss / kPage
  uint64_t acked_lost_pages;  // acked_bytes_lost_on_power_loss / kPage
  uint64_t stored;            // pages the provider still holds
};

std::vector<GroupCommitCase> cases() {
  return {
      // Four pages close a max_records=4 batch long before the 10 s timer,
      // paying one disk positioning overhead for all four.
      {"CountTriggerFiresBeforeTimer", DurabilityPolicy::batched(4, 10.0), 4,
       kNoCrash, {{0.5, 1}}, 0, 1, 4, 4, 0, 0, 4},
      // The batch never fills; the 50 ms timer flushes it.
      {"TimerTriggerFiresBeforeCount", DurabilityPolicy::batched(100, 0.05), 3,
       kNoCrash, {{0.04, 0}, {0.1, 1}}, 0, 1, 3, 3, 0, 0, 3},
      // One batch per page, and each ack waits for its own sync (at least
      // one disk positioning overhead).
      {"ImmediateSyncsEveryPageAlone", DurabilityPolicy::immediate(), 3,
       kNoCrash, {}, 2e-3, 3, 3, 3, 0, 0, 3},
      // The power loss at 1 ms catches the first page on the platter path
      // and the rest in RAM: the whole window dies, and since kImmediate
      // acks nothing unsynced, no acked byte is lost.
      {"ImmediateCrashBeforeAckLosesTheWindow", DurabilityPolicy::immediate(),
       4, 1e-3, {}, 0, 0, 0, 0, 4, 0, 0},
      // kBatched acks a page while the window ahead of it holds at most
      // max_records pages: pages 1-4 are acked on arrival, 5-6 wait. The
      // crash kills the in-flight batch (1-4) and the queue (5-6); the
      // acked loss is exactly the max_records bound.
      {"BatchedCrashBeforeAckLosesTheWindow",
       DurabilityPolicy::batched(4, 10.0), 6, 1e-3, {}, 0, 0, 0, 4, 6, 4, 0},
      // kNone acks on arrival: a crash before the flush loses every page,
      // all of them acked (the unbounded window).
      {"NoneCrashBeforeSyncLosesEveryAckedPage", DurabilityPolicy::none(), 3,
       1e-3, {}, 0, 0, 0, 3, 3, 3, 0},
      // Well after the count trigger synced the batch (~2 ms): what was
      // acked survives the plain crash.
      {"CrashAfterAckLosesNothing", DurabilityPolicy::batched(4, 10.0), 4, 1.0,
       {}, 0, 1, 4, 4, 0, 0, 4},
  };
}

void PrintTo(const GroupCommitCase& c, std::ostream* os) { *os << c.name; }

class GroupCommitTest : public ::testing::TestWithParam<GroupCommitCase> {};

TEST_P(GroupCommitTest, TriggersAndLossMatchThePolicy) {
  const GroupCommitCase& c = GetParam();
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  ProviderConfig cfg;
  cfg.node = kNode;
  cfg.durability = c.policy;
  Provider p(sim, net, cfg);
  obs::MetricsRegistry& m = sim.metrics();
  const obs::Counter& batches = m.counter("kv/group_commit_batches");
  const obs::Counter& records = m.counter("kv/group_commit_records");

  std::vector<Ack> acks(c.pages);
  for (uint64_t i = 0; i < c.pages; ++i) {
    sim.spawn(one_put(&sim, &p, i, &acks[i]));
  }
  if (c.crash_s != kNoCrash) sim.spawn(crash_at(&sim, &net, &p, c.crash_s));
  for (const auto& [at, expected] : c.probes) {
    sim.run_until(at);
    EXPECT_EQ(batches.value(), static_cast<double>(expected)) << "at " << at;
  }
  sim.run();

  uint64_t acked = 0;
  for (const Ack& a : acks) {
    ASSERT_NE(a.result, 0) << "an ack never resolved";
    if (a.result == 1) {
      ++acked;
      EXPECT_GE(a.at, c.min_ack_s);
    }
  }
  EXPECT_EQ(acked, c.acked);
  EXPECT_EQ(batches.value(), static_cast<double>(c.batches));
  EXPECT_EQ(records.value(), static_cast<double>(c.records));
  EXPECT_EQ(p.flush_batches(), c.batches);
  EXPECT_EQ(p.bytes_lost_on_power_loss(), c.lost_pages * kPage);
  EXPECT_EQ(p.acked_bytes_lost_on_power_loss(), c.acked_lost_pages * kPage);
  EXPECT_EQ(m.counter("kv/acked_bytes_lost_on_power_loss").value(),
            static_cast<double>(c.acked_lost_pages * kPage));
  // The window was fully accounted: nothing is left unsynced.
  EXPECT_EQ(p.unsynced_pages(), 0u);
  EXPECT_EQ(m.gauge("kv/unsynced_bytes").value(), 0.0);
  uint64_t stored = 0;
  for (uint64_t i = 0; i < c.pages; ++i) stored += p.has_page(page_key(i));
  EXPECT_EQ(stored, c.stored);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GroupCommitTest, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<GroupCommitCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace bs::blob
