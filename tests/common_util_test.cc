// Unit and property tests for the common utilities: Rng, hashing, KMV
// sketch, bit helpers, the heap thresholds and the logging threshold.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdlib>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/bit_util.h"
#include "common/hash.h"
#include "common/heap.h"
#include "common/kmv.h"
#include "common/logging.h"
#include "common/rng.h"

namespace blusim {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.Below(13), 13u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfInRangeAndSkewed) {
  Rng rng(13);
  std::vector<uint64_t> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t v = rng.Zipf(100, 0.8);
    ASSERT_LT(v, 100u);
    ++counts[v];
  }
  // The head of the distribution must dominate the tail.
  uint64_t head = counts[0] + counts[1] + counts[2];
  uint64_t tail = counts[97] + counts[98] + counts[99];
  EXPECT_GT(head, 10 * std::max<uint64_t>(tail, 1));
}

TEST(HashTest, Murmur64Deterministic) {
  const char data[] = "hello columnar world";
  EXPECT_EQ(Murmur3_64(data, sizeof(data)), Murmur3_64(data, sizeof(data)));
}

TEST(HashTest, Murmur64SensitiveToEveryByte) {
  std::string base(64, 'a');
  const uint64_t h0 = Murmur3_64(base.data(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    std::string mod = base;
    mod[i] = 'b';
    EXPECT_NE(Murmur3_64(mod.data(), mod.size()), h0) << "byte " << i;
  }
}

TEST(HashTest, Murmur64AllTailLengths) {
  // Covers the 15-way switch over the trailing block.
  std::string data(48, 'x');
  std::set<uint64_t> hashes;
  for (size_t len = 0; len <= 32; ++len) {
    hashes.insert(Murmur3_64(data.data(), len));
  }
  EXPECT_EQ(hashes.size(), 33u);  // all distinct
}

TEST(HashTest, Mix64IsBijectiveOnSample) {
  std::unordered_set<uint64_t> out;
  for (uint64_t v = 0; v < 5000; ++v) out.insert(Mix64(v));
  EXPECT_EQ(out.size(), 5000u);
}

TEST(HashTest, ModHash) {
  EXPECT_EQ(ModHash(17, 5), 2u);
  EXPECT_EQ(ModHash(0, 7), 0u);
}

class KmvAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KmvAccuracyTest, EstimateWithin15Percent) {
  const uint64_t distinct = GetParam();
  KmvSketch sketch(256);
  Rng rng(5);
  // Feed 4 occurrences of each value in shuffled-ish order.
  for (int rep = 0; rep < 4; ++rep) {
    for (uint64_t v = 0; v < distinct; ++v) {
      sketch.AddHash(Mix64(v * 2654435761ULL + 17));
    }
  }
  const double est = static_cast<double>(sketch.Estimate());
  const double truth = static_cast<double>(distinct);
  if (distinct < 256) {
    EXPECT_EQ(sketch.Estimate(), distinct);  // exact below k
  } else {
    EXPECT_NEAR(est / truth, 1.0, 0.15) << "estimate " << est;
  }
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, KmvAccuracyTest,
                         ::testing::Values(1, 12, 100, 255, 256, 1000, 10000,
                                           100000, 500000));

TEST(KmvTest, DuplicatesDoNotInflate) {
  KmvSketch sketch(64);
  for (int i = 0; i < 100000; ++i) sketch.AddHash(Mix64(42));
  EXPECT_EQ(sketch.Estimate(), 1u);
}

TEST(KmvTest, ExactBelowKForZeroAndCollidingHashes) {
  // Below k distinct hashes the estimate is the exact count, whatever the
  // hashes: a zero hash, and hashes that agree in their low and top bits.
  KmvSketch sketch(256);
  for (int rep = 0; rep < 3; ++rep) {
    sketch.AddHash(0);
    for (uint64_t i = 1; i < 200; ++i) {
      sketch.AddHash((0x2AULL << 58) | (i << 20) | 0xFFFFFULL);
    }
  }
  EXPECT_EQ(sketch.Estimate(), 200u);
}

TEST(KmvTest, MergeEquivalentToUnion) {
  KmvSketch a(128), b(128), all(128);
  for (uint64_t v = 0; v < 5000; ++v) {
    const uint64_t h = Mix64(v);
    if (v % 2 == 0) a.AddHash(h);
    else b.AddHash(h);
    all.AddHash(h);
  }
  a.Merge(b);
  EXPECT_EQ(a.Estimate(), all.Estimate());
}

TEST(KmvTest, HashPartitionEstimateDropsSharedTopBits) {
  // The hashes of one HashPartition range share its top bits, so only the
  // bits below them are uniform. Without the correction the estimate
  // follows the partition index: about P-fold high for partition 0 and
  // pinned near (k - 1) * P / p for partition p.
  constexpr uint32_t kPartitions = 8;
  constexpr uint64_t kDistinct = 10000;
  for (const uint32_t part : {0u, 3u, 7u}) {
    KmvSketch sketch(256);
    uint64_t added = 0;
    for (uint64_t v = 0; added < kDistinct; ++v) {
      const uint64_t h = Mix64(v);
      if (HashPartition(h, kPartitions) != part) continue;
      sketch.AddHash(h);
      ++added;
    }
    const double truth = static_cast<double>(kDistinct);
    EXPECT_NEAR(static_cast<double>(sketch.Estimate(kPartitions)) / truth,
                1.0, 0.15)
        << "partition " << part;
    const double raw = static_cast<double>(sketch.Estimate()) / truth;
    EXPECT_TRUE(raw > 4.0 || raw < 0.25) << "partition " << part << " " << raw;
  }
}

TEST(BitUtilTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_EQ(NextPow2(1025), 2048u);
  EXPECT_EQ(NextPow2((1ULL << 40) + 1), 1ULL << 41);
}

TEST(BitUtilTest, IsPow2) {
  EXPECT_FALSE(IsPow2(0));
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(65));
}

TEST(BitUtilTest, AlignUp) {
  EXPECT_EQ(AlignUp(0, 8), 0u);
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignUp(9, 16), 16u);
}

TEST(BitUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
}

// A block below the mmap threshold, freed and allocated again, comes back
// from the heap with its pages still mapped: the second fill faults in
// (almost) no fresh page, where glibc's starting thresholds (128 KiB) map
// and unmap it each time.
TEST(HeapTest, FreedBlockIsRefilledWithoutFreshPages) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocator thresholds are glibc malloc's";
#else
  KeepFreedHeapMapped();
  constexpr size_t kBytes = size_t{8} << 20;
  static_assert(kBytes < kHeapMmapThreshold);
  auto fill = [] {
    std::vector<char> block(kBytes, 1);
    return block[kBytes - 1];
  };
  auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  EXPECT_EQ(fill(), 1);
  const long before = minor_faults();
  EXPECT_EQ(fill(), 1);
  EXPECT_LT(minor_faults() - before, static_cast<long>(kBytes / 4096 / 8));
#endif
}

// Restores the default (env unset, threshold kWarning) on scope exit so
// these tests cannot leak log-level state into each other.
class LogLevelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("BLUSIM_LOG_LEVEL");
    ReinitLogLevelFromEnvForTest();
  }
};

TEST_F(LogLevelTest, DefaultsToWarningWithoutEnv) {
  unsetenv("BLUSIM_LOG_LEVEL");
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kWarning);
}

TEST_F(LogLevelTest, HonorsNamedEnvLevels) {
  setenv("BLUSIM_LOG_LEVEL", "debug", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kDebug);
  setenv("BLUSIM_LOG_LEVEL", "info", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kInfo);
  setenv("BLUSIM_LOG_LEVEL", "error", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kError);
  setenv("BLUSIM_LOG_LEVEL", "off", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kOff);
}

TEST_F(LogLevelTest, HonorsNumericEnvLevels) {
  setenv("BLUSIM_LOG_LEVEL", "0", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kDebug);
  setenv("BLUSIM_LOG_LEVEL", "4", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kOff);
}

TEST_F(LogLevelTest, GarbageEnvFallsBackToDefault) {
  setenv("BLUSIM_LOG_LEVEL", "verbose-ish", 1);
  EXPECT_EQ(ReinitLogLevelFromEnvForTest(), LogLevel::kWarning);
}

TEST_F(LogLevelTest, SetLogLevelOverridesEnv) {
  setenv("BLUSIM_LOG_LEVEL", "debug", 1);
  ReinitLogLevelFromEnvForTest();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
}

TEST_F(LogLevelTest, LogEveryNCompilesAndRuns) {
  // Streams only on hits 1, 101, 201 of this statement; with the threshold
  // at kOff nothing reaches stderr either way -- this exercises the macro's
  // counter and statement form.
  SetLogLevel(LogLevel::kOff);
  for (int i = 0; i < 250; ++i) {
    BLUSIM_LOG_EVERY_N(Warning, 100) << "hit " << i;
  }
}

}  // namespace
}  // namespace blusim
