// Tests for the KV store: basic ops, ordered scans, and a randomized
// property test against std::map as the oracle.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.h"
#include "kv/kvstore.h"

namespace bs::kv {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string str_of(const Bytes& b) { return std::string(b.begin(), b.end()); }

TEST(KvStore, PutGetErase) {
  KvStore kv;
  EXPECT_FALSE(kv.get("a").has_value());
  kv.put("a", bytes_of("1"));
  kv.put("b", bytes_of("2"));
  EXPECT_EQ(str_of(*kv.get("a")), "1");
  EXPECT_EQ(str_of(*kv.get("b")), "2");
  EXPECT_TRUE(kv.contains("a"));
  EXPECT_EQ(kv.size(), 2u);
  kv.put("a", bytes_of("one"));
  EXPECT_EQ(str_of(*kv.get("a")), "one");
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_TRUE(kv.erase("a"));
  EXPECT_FALSE(kv.erase("a"));
  EXPECT_FALSE(kv.contains("a"));
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStore, ValueBytesTracksContent) {
  KvStore kv;
  kv.put("k", Bytes(100));
  EXPECT_EQ(kv.value_bytes(), 100u);
  kv.put("k", Bytes(40));
  EXPECT_EQ(kv.value_bytes(), 40u);
  kv.put("j", Bytes(10));
  EXPECT_EQ(kv.value_bytes(), 50u);
  kv.erase("k");
  EXPECT_EQ(kv.value_bytes(), 10u);
}

TEST(KvStore, OrderedScan) {
  KvStore kv;
  for (const char* k : {"b", "d", "a", "c", "e"}) kv.put(k, bytes_of(k));
  std::string seen;
  kv.scan("b", "e", [&](const std::string& k, const Bytes&) {
    seen += k;
    return true;
  });
  EXPECT_EQ(seen, "bcd");
  // Early stop.
  seen.clear();
  kv.scan("", "", [&](const std::string& k, const Bytes&) {
    seen += k;
    return k != "c";
  });
  EXPECT_EQ(seen, "abc");
}

TEST(KvStore, PrefixScan) {
  KvStore kv;
  kv.put("p/1/a", bytes_of("x"));
  kv.put("p/1/b", bytes_of("y"));
  kv.put("p/2/a", bytes_of("z"));
  kv.put("q", bytes_of("w"));
  int count = 0;
  kv.scan_prefix("p/1/", [&](const std::string&, const Bytes&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2);
}

// Property test: a random op sequence applied to KvStore and to std::map
// must end in identical states.
class KvOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(KvOracleTest, MatchesStdMapOracle) {
  Rng rng(GetParam());
  KvStore kv;
  std::map<std::string, Bytes> oracle;

  for (int op = 0; op < 2000; ++op) {
    const std::string key = "key" + std::to_string(rng.below(50));
    const double dice = rng.uniform();
    if (dice < 0.55) {
      Bytes value(rng.below(64));
      for (auto& b : value) b = static_cast<uint8_t>(rng.below(256));
      kv.put(key, value);
      oracle[key] = value;
    } else if (dice < 0.8) {
      EXPECT_EQ(kv.erase(key), oracle.erase(key) > 0);
    } else if (dice < 0.95) {
      auto got = kv.get(key);
      auto it = oracle.find(key);
      ASSERT_EQ(got.has_value(), it != oracle.end());
      if (got) {
        EXPECT_EQ(*got, it->second);
      }
    } else {
      EXPECT_EQ(kv.contains(key), oracle.count(key) > 0);
    }
  }
  ASSERT_EQ(kv.size(), oracle.size());
  ASSERT_EQ(kv.value_bytes(), [&] {
    uint64_t total = 0;
    for (auto& [k, v] : oracle) total += v.size();
    return total;
  }());

  // Full-state comparison via scan.
  auto it = oracle.begin();
  kv.scan("", "", [&](const std::string& k, const Bytes& v) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
    return true;
  });
  EXPECT_EQ(it, oracle.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvOracleTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace bs::kv
