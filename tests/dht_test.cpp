// Tests for the consistent-hash ring and the metadata DHT service.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "dht/dht.h"
#include "dht/ring.h"
#include "net/network.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace bs::dht {
namespace {

std::vector<net::NodeId> nodes_0_to(uint32_t n) {
  std::vector<net::NodeId> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(HashRing, PrimaryIsDeterministic) {
  HashRing ring(nodes_0_to(10));
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(ring.primary(k * 7919), ring.primary(k * 7919));
  }
}

TEST(HashRing, ReplicasAreDistinct) {
  HashRing ring(nodes_0_to(10));
  for (uint64_t k = 0; k < 200; ++k) {
    auto reps = ring.replicas(fnv1a64_u64(k), 3);
    ASSERT_EQ(reps.size(), 3u);
    std::set<net::NodeId> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), 3u);
    EXPECT_EQ(reps[0], ring.primary(fnv1a64_u64(k)));
  }
}

TEST(HashRing, ReplicationClampedToNodeCount) {
  HashRing ring(nodes_0_to(2));
  auto reps = ring.replicas(12345, 5);
  EXPECT_EQ(reps.size(), 2u);
}

TEST(HashRing, LoadSpreadIsReasonable) {
  // With vnodes, the busiest node should hold well under 3x the average.
  HashRing ring(nodes_0_to(16), 128);
  std::vector<int> counts(16, 0);
  Rng rng(5);
  const int keys = 20000;
  for (int k = 0; k < keys; ++k) counts[ring.primary(rng.next())]++;
  const int avg = keys / 16;
  for (int c : counts) {
    EXPECT_GT(c, avg / 3);
    EXPECT_LT(c, avg * 3);
  }
}

TEST(HashRing, SingleNodeTakesEverything) {
  HashRing ring({7});
  EXPECT_EQ(ring.primary(1), 7u);
  EXPECT_EQ(ring.primary(999), 7u);
}

net::ClusterConfig small_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 16;
  cfg.nodes_per_rack = 8;
  return cfg;
}

using blob::MetaKey;
using blob::MetaNode;

// A leaf as the blob client stores it; `tag` makes values distinguishable.
MetaNode leaf_node(const MetaKey& key, uint32_t tag) {
  MetaNode n;
  n.range = {key.first, key.count};
  n.version = key.version;
  n.providers = {tag, tag + 1};
  n.page_length = 4096 + tag;
  return n;
}

bool same_node(const MetaNode& a, const MetaNode& b) {
  return a.range == b.range && a.version == b.version && a.left == b.left &&
         a.right == b.right && a.providers == b.providers &&
         a.page_length == b.page_length;
}

TEST(Dht, PutThenGetRoundtrips) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  Dht dht(sim, net, nodes_0_to(8));
  bool checked = false;
  auto proc = [](Dht& d, bool* ok) -> sim::Task<void> {
    const MetaKey key{3, 12, 1, 9};
    const MetaNode node = leaf_node(key, 17);
    co_await d.put(9, key, node);
    auto got = co_await d.get(9, key);
    auto missing = co_await d.get(9, MetaKey{3, 12, 1, 10});
    *ok = got.has_value() && same_node(*got, node) && !missing.has_value();
  };
  sim.spawn(proc(dht, &checked));
  sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(dht.puts(), 1u);
  EXPECT_EQ(dht.gets(), 2u);
  EXPECT_EQ(dht.total_entries(), 1u);
}

TEST(Dht, ReplicationStoresCopies) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  DhtConfig cfg;
  cfg.replication = 3;
  Dht dht(sim, net, nodes_0_to(8), cfg);
  auto proc = [](Dht& d) -> sim::Task<void> {
    for (uint32_t i = 0; i < 10; ++i) {
      const MetaKey key{1, i, 1, 1};
      co_await d.put(9, key, leaf_node(key, i));
    }
  };
  sim.spawn(proc(dht));
  sim.run();
  EXPECT_EQ(dht.total_entries(), 30u);  // 10 keys × 3 replicas
}

TEST(Dht, RequestCostIncludesLatencyAndService) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  DhtConfig cfg;
  cfg.service_time_s = 1e-3;
  Dht dht(sim, net, nodes_0_to(8), cfg);
  auto proc = [](Dht& d) -> sim::Task<void> {
    const MetaKey key{1, 0, 1, 1};
    co_await d.put(9, key, leaf_node(key, 1));
  };
  sim.spawn(proc(dht));
  sim.run();
  // 2 × control latency (200us) + 1ms service.
  EXPECT_NEAR(sim.now(), 2 * 200e-6 + 1e-3, 1e-9);
}

TEST(Dht, ConcurrentClientsSpreadOverServers) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  DhtConfig cfg;
  cfg.service_time_s = 1e-3;
  Dht dht(sim, net, nodes_0_to(8), cfg);
  auto proc = [](Dht& d, uint32_t id) -> sim::Task<void> {
    for (uint32_t i = 0; i < 20; ++i) {
      const MetaKey key{id, i, 1, 1};
      co_await d.put(15, key, leaf_node(key, i));
    }
  };
  for (uint32_t c = 0; c < 8; ++c) sim.spawn(proc(dht, c));
  sim.run();
  // 160 requests over 8 servers at 1ms each: if they were serialized at one
  // server it would take 160ms+; spread, the span should be far less.
  EXPECT_LT(sim.now(), 0.1);
  auto per_node = dht.requests_per_node();
  uint64_t total = 0, busiest = 0;
  for (auto& [n, c] : per_node) {
    total += c;
    busiest = std::max(busiest, c);
  }
  EXPECT_EQ(total, 160u);
  EXPECT_LT(busiest, 70u);  // no single hotspot
}

TEST(Dht, OverwriteReplacesValue) {
  sim::Simulator sim;
  net::Network net(sim, small_net());
  Dht dht(sim, net, nodes_0_to(4));
  bool ok = false;
  auto proc = [](Dht& d, bool* out) -> sim::Task<void> {
    const MetaKey key{1, 0, 1, 1};
    co_await d.put(0, key, leaf_node(key, 1));
    co_await d.put(0, key, leaf_node(key, 2));
    auto got = co_await d.get(0, key);
    *out = got.has_value() && same_node(*got, leaf_node(key, 2));
  };
  sim.spawn(proc(dht, &ok));
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(dht.total_entries(), 1u);
}

// Placement pin: a MetaKey lands on exactly the providers a string-keyed
// DHT chose for "m/<blob>/<first>/<count>/<version>", so typed keys move no
// metadata node (and no simulated request) anywhere else.
TEST(Dht, PlacementMatchesCanonicalKeyText) {
  constexpr uint32_t kMax32 = std::numeric_limits<uint32_t>::max();
  constexpr uint64_t kMax64 = std::numeric_limits<uint64_t>::max();
  const std::vector<MetaKey> keys = {
      {0, 0, 0, 0},           {0, 0, 1, 1},
      {1, 0, 1, 1},           {7, 12, 4, 9},
      {42, 1024, 1024, 100},  {123456, 987654321, 1, 77},
      {kMax32, 0, 1, 1},      {1, kMax64, 1, 1},
      {1, 0, kMax64, 1},      {1, 0, 1, kMax32},
      {kMax32, kMax64, kMax64, kMax32},
  };
  for (const MetaKey& key : keys) {
    const std::string text = "m/" + std::to_string(key.blob) + "/" +
                             std::to_string(key.first) + "/" +
                             std::to_string(key.count) + "/" +
                             std::to_string(key.version);
    const uint64_t h = fnv1a64(text);
    EXPECT_EQ(key.placement_hash(), h) << text;

    sim::Simulator sim;
    net::Network net(sim, small_net());
    DhtConfig cfg;
    cfg.replication = 3;
    Dht dht(sim, net, nodes_0_to(8), cfg);
    std::map<net::NodeId, uint64_t> after_put, after_get;
    auto proc = [](Dht& d, MetaKey k, std::map<net::NodeId, uint64_t>* put,
                   std::map<net::NodeId, uint64_t>* get) -> sim::Task<void> {
      co_await d.put(9, k, leaf_node(k, 1));
      *put = d.requests_per_node();
      co_await d.get(9, k);
      *get = d.requests_per_node();
    };
    sim.spawn(proc(dht, key, &after_put, &after_get));
    sim.run();

    // The put reached exactly the ring's replica set for the text hash ...
    const auto want = dht.ring().replicas(h, cfg.replication);
    std::set<net::NodeId> put_targets;
    for (const auto& [n, c] : after_put) {
      if (c > 0) put_targets.insert(n);
    }
    EXPECT_EQ(put_targets, std::set<net::NodeId>(want.begin(), want.end()))
        << text;
    // ... and the get read from its primary.
    std::vector<net::NodeId> get_targets;
    for (const auto& [n, c] : after_get) {
      if (c > after_put[n]) get_targets.push_back(n);
    }
    EXPECT_EQ(get_targets, std::vector<net::NodeId>{dht.ring().primary(h)})
        << text;
    EXPECT_EQ(want.front(), dht.ring().primary(h));
  }
}

}  // namespace
}  // namespace bs::dht
