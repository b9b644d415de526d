// Tests for the engine-wide metrics registry: instrument semantics,
// registration identity, and -- under the `concurrency` label -- that the
// sharded counters, gauges and histograms stay consistent when hammered
// from many threads at once (run under -DBLUSIM_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace blusim::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAddAndMax) {
  Gauge g;
  g.Set(100);
  g.Add(-30);
  EXPECT_EQ(g.Value(), 70);
  g.SetMax(50);  // below current: no-op
  EXPECT_EQ(g.Value(), 70);
  g.SetMax(99);
  EXPECT_EQ(g.Value(), 99);
}

TEST(HistogramTest, PowerOfTwoBucketPlacement) {
  Histogram h;
  h.Observe(0);   // <= 1      -> bucket 0
  h.Observe(1);   // <= 1      -> bucket 0
  h.Observe(2);   // <= 2      -> bucket 1
  h.Observe(3);   // <= 4      -> bucket 2
  h.Observe(1ULL << 30);  // beyond 2^28 -> +Inf bucket
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(Histogram::kNumBuckets), 1u);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 0u + 1 + 2 + 3 + (1ULL << 30));
}

TEST(RegistryTest, SameNameAndLabelsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests", {{"path", "gpu"}}, "help");
  Counter* b = registry.GetCounter("requests", {{"path", "gpu"}});
  Counter* c = registry.GetCounter("requests", {{"path", "cpu"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.num_instruments(), 2u);
}

TEST(RegistryTest, LabelOrderIsCanonical) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  Counter* b = registry.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.num_instruments(), 1u);
}

TEST(RegistryTest, SnapshotSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("zz_total", {}, "last")->Add(7);
  registry.GetGauge("aa_bytes", {}, "first")->Set(-5);
  Histogram* h = registry.GetHistogram("mm_us", {}, "mid");
  h->Observe(3);
  h->Observe(300);

  auto samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "aa_bytes");
  EXPECT_EQ(samples[0].type, MetricType::kGauge);
  EXPECT_EQ(samples[0].value, -5);
  EXPECT_EQ(samples[1].name, "mm_us");
  EXPECT_EQ(samples[1].type, MetricType::kHistogram);
  EXPECT_EQ(samples[1].count, 2u);
  EXPECT_EQ(samples[1].sum, 303u);
  ASSERT_EQ(samples[1].bucket_counts.size(),
            static_cast<size_t>(Histogram::kNumBuckets) + 1);
  EXPECT_EQ(samples[2].name, "zz_total");
  EXPECT_EQ(samples[2].value, 7);
}

// --- concurrency (TSan target) ---

TEST(MetricsConcurrencyTest, CounterNoLostUpdates) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kAddsPerThread);
}

TEST(MetricsConcurrencyTest, GaugeSetMaxConverges) {
  Gauge g;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 20000; ++i) g.SetMax(t * 20000 + i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.Value(), (kThreads - 1) * 20000 + 19999);
}

TEST(MetricsConcurrencyTest, HistogramCountsConsistent) {
  Histogram h;
  constexpr int kThreads = 6;
  constexpr uint64_t kObsPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kObsPerThread; ++i) {
        h.Observe((i + static_cast<uint64_t>(t)) % 1000);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kObsPerThread);
  uint64_t bucket_total = 0;
  for (int b = 0; b <= Histogram::kNumBuckets; ++b) {
    bucket_total += h.BucketCount(b);
  }
  EXPECT_EQ(bucket_total, kThreads * kObsPerThread);
}

TEST(MetricsConcurrencyTest, RacingRegistrationYieldsOneInstrument) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      Counter* c =
          registry.GetCounter("race_total", {{"k", "v"}}, "racing getter");
      c->Add();
      seen[static_cast<size_t>(t)] = c;
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(registry.num_instruments(), 1u);
  EXPECT_EQ(seen[0]->Value(), static_cast<uint64_t>(kThreads));
}

TEST(MetricsConcurrencyTest, SnapshotDuringUpdatesIsSane) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("live_total");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) c->Add();
  });
  uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    auto samples = registry.Snapshot();
    ASSERT_EQ(samples.size(), 1u);
    const uint64_t now = static_cast<uint64_t>(samples[0].value);
    EXPECT_GE(now, last);  // counters are monotone
    last = now;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
}  // namespace blusim::obs
