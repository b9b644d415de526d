// WindowedHistogram / SloTracker: sliding-window correctness under a
// hand-driven clock, quantile math against the shared power-of-two
// buckets, and multi-writer safety (runs under TSan via -L concurrency).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/window.h"

namespace blusim::obs {
namespace {

WindowOptions SmallWindow() {
  WindowOptions w;
  w.window_us = 1000;  // 10 slices of 100us
  w.slices = 10;
  return w;
}

TEST(WindowedHistogramTest, EmptySnapshotIsZero) {
  WindowedHistogram h(SmallWindow());
  const WindowSnapshot snap = h.Snapshot(0);
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.QuantileUpperBound(0.99), 0u);
  EXPECT_EQ(snap.MeanUs(), 0.0);
}

TEST(WindowedHistogramTest, ObservationsInsideWindowAreCounted) {
  WindowedHistogram h(SmallWindow());
  h.ObserveAt(5, 0);
  h.ObserveAt(10, 450);
  h.ObserveAt(100, 990);
  const WindowSnapshot snap = h.Snapshot(999);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 115u);
}

TEST(WindowedHistogramTest, OldSlicesAgeOut) {
  WindowedHistogram h(SmallWindow());
  h.ObserveAt(5, 0);    // slice epoch 0
  h.ObserveAt(7, 150);  // slice epoch 1
  // At t=1050, epochs [1, 10] are live: epoch 0 expired, epoch 1 not yet.
  EXPECT_EQ(h.Snapshot(1050).count, 1u);
  // One full window later everything is gone.
  EXPECT_EQ(h.Snapshot(2100).count, 0u);
}

TEST(WindowedHistogramTest, RingReuseResetsExpiredSlice) {
  WindowedHistogram h(SmallWindow());
  h.ObserveAt(5, 0);  // ring position 0, epoch 0
  // Same ring position one full window later (epoch 10): the old slice's
  // counts must not bleed into the new epoch.
  h.ObserveAt(9, 1000);
  const WindowSnapshot snap = h.Snapshot(1000);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 9u);
}

TEST(WindowedHistogramTest, QuantileMatchesBucketBounds) {
  WindowedHistogram h(SmallWindow());
  // 99 observations at ~3us (bucket le=4), 1 at ~1000us (bucket le=1024).
  for (int i = 0; i < 99; ++i) h.ObserveAt(3, 10);
  h.ObserveAt(1000, 10);
  const WindowSnapshot snap = h.Snapshot(10);
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.QuantileUpperBound(0.50), 4u);
  EXPECT_EQ(snap.QuantileUpperBound(0.95), 4u);
  // rank ceil(0.99*100)=99 still lands in the 3us bucket.
  EXPECT_EQ(snap.QuantileUpperBound(0.99), 4u);
  EXPECT_EQ(snap.QuantileUpperBound(1.0), 1024u);
}

TEST(WindowedHistogramTest, OverflowBucketReportsCeiling) {
  WindowedHistogram h(SmallWindow());
  // Beyond the last finite bound (2^28): falls in +Inf, quantile reports
  // one doubling past the last finite bound.
  h.ObserveAt(1ULL << 30, 0);
  const WindowSnapshot snap = h.Snapshot(0);
  EXPECT_EQ(snap.QuantileUpperBound(0.5),
            Histogram::BucketBound(Histogram::kNumBuckets - 1) * 2);
}

TEST(WindowedHistogramTest, MatchesCumulativeHistogramBuckets) {
  // The acceptance bar for /metrics: a window quantile and the offline
  // cumulative histogram must land in the same bucket for the same data.
  WindowedHistogram window(SmallWindow());
  Histogram cumulative;
  const uint64_t values[] = {1, 3, 9, 17, 40, 90, 200, 1000, 5000, 20000};
  for (uint64_t v : values) {
    window.ObserveAt(v, 50);
    cumulative.Observe(v);
  }
  const WindowSnapshot snap = window.Snapshot(50);
  ASSERT_EQ(snap.count, cumulative.Count());
  for (int b = 0; b <= Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(snap.buckets[static_cast<size_t>(b)], cumulative.BucketCount(b))
        << "bucket " << b;
  }
}

TEST(SloTrackerTest, TargetsPerClassWithDefault) {
  SloOptions opts;
  opts.default_target_us = 1000;
  opts.class_targets = {{"groupby", 50}, {"sort", 200}};
  SloTracker slo(opts);
  EXPECT_EQ(slo.TargetFor("groupby"), 50u);
  EXPECT_EQ(slo.TargetFor("sort"), 200u);
  EXPECT_EQ(slo.TargetFor("join"), 1000u);
}

TEST(SloTrackerTest, RecordSplitsOkAndBreach) {
  int64_t now = 0;
  SloOptions opts;
  opts.window = SmallWindow();
  opts.default_target_us = 100;
  opts.clock = [&now] { return now; };
  SloTracker slo(opts);

  slo.Record("groupby", "gpu", "t0", 50);    // ok
  slo.Record("groupby", "gpu", "t0", 99);    // ok
  slo.Record("groupby", "gpu", "t0", 5000);  // breach

  const WindowSnapshot w = slo.Window("groupby", "gpu", "t0");
  EXPECT_EQ(w.count, 3u);

  bool saw_ok = false, saw_breach = false, saw_burn = false;
  for (const MetricSample& s : slo.Collect()) {
    if (s.name == "blusim_slo_ok_total") {
      saw_ok = true;
      EXPECT_EQ(s.value, 2);
    } else if (s.name == "blusim_slo_breach_total") {
      saw_breach = true;
      EXPECT_EQ(s.value, 1);
    } else if (s.name == "blusim_slo_burn_permille") {
      saw_burn = true;
      EXPECT_EQ(s.value, 333);  // 1 breach / 3 completions
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_breach);
  EXPECT_TRUE(saw_burn);
}

TEST(SloTrackerTest, WindowBreachesAgeOutButTotalsDoNot) {
  int64_t now = 0;
  SloOptions opts;
  opts.window = SmallWindow();
  opts.default_target_us = 10;
  opts.clock = [&now] { return now; };
  SloTracker slo(opts);

  slo.Record("sort", "cpu", "", 500);  // breach at t=0
  now = 5000;                          // several windows later
  slo.Record("sort", "cpu", "", 1);    // ok at t=5000

  uint64_t window_breach = 1;
  uint64_t breach_total = 0;
  for (const MetricSample& s : slo.Collect()) {
    if (s.name == "blusim_slo_window_breach") {
      window_breach = static_cast<uint64_t>(s.value);
    } else if (s.name == "blusim_slo_breach_total") {
      breach_total = static_cast<uint64_t>(s.value);
    }
  }
  EXPECT_EQ(window_breach, 0u) << "windowed breach should have aged out";
  EXPECT_EQ(breach_total, 1u) << "cumulative total must persist";
}

TEST(SloTrackerTest, ShedSeriesKeyedByClassAndTenant) {
  int64_t now = 0;
  SloOptions opts;
  opts.window = SmallWindow();
  opts.clock = [&now] { return now; };
  SloTracker slo(opts);

  slo.RecordShed("join", "t1");
  slo.RecordShed("join", "t1");
  slo.RecordShed("join", "t2");

  uint64_t t1 = 0, t2 = 0;
  for (const MetricSample& s : slo.Collect()) {
    if (s.name != "blusim_slo_shed_total") continue;
    for (const auto& [k, v] : s.labels) {
      if (k == "tenant" && v == "t1") t1 = static_cast<uint64_t>(s.value);
      if (k == "tenant" && v == "t2") t2 = static_cast<uint64_t>(s.value);
    }
  }
  EXPECT_EQ(t1, 2u);
  EXPECT_EQ(t2, 1u);
}

TEST(SloTrackerTest, CollectIsSortedForTheExporters) {
  SloTracker slo;
  slo.Record("sort", "cpu", "b", 10);
  slo.Record("groupby", "gpu", "a", 10);
  slo.RecordShed("join", "c");
  const std::vector<MetricSample> samples = slo.Collect();
  for (size_t i = 1; i < samples.size(); ++i) {
    const bool ordered =
        samples[i - 1].name < samples[i].name ||
        (samples[i - 1].name == samples[i].name &&
         samples[i - 1].labels <= samples[i].labels);
    EXPECT_TRUE(ordered) << samples[i - 1].name << " vs " << samples[i].name;
  }
}

TEST(SloTrackerTest, ConcurrentWritersAndReaders) {
  // TSan target: hammer Record/RecordShed from many threads while readers
  // snapshot and collect. Totals must be exact.
  SloOptions opts;
  opts.window.window_us = 1'000'000;
  opts.default_target_us = 100;
  SloTracker slo(opts);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  const char* kClasses[] = {"groupby", "sort", "join"};
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)slo.Collect();
      (void)slo.Window("groupby", "gpu", "t0");
      (void)slo.WindowQuantileUs("sort", "cpu", "t1", 0.99);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string tenant = "t" + std::to_string(w % 2);
      for (int i = 0; i < kPerWriter; ++i) {
        const char* cls = kClasses[i % 3];
        if (i % 10 == 9) {
          slo.RecordShed(cls, tenant);
        } else {
          slo.Record(cls, i % 2 ? "gpu" : "cpu", tenant,
                     static_cast<uint64_t>(i % 500));
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  uint64_t ok = 0, breach = 0, shed = 0;
  for (const MetricSample& s : slo.Collect()) {
    if (s.name == "blusim_slo_ok_total") ok += static_cast<uint64_t>(s.value);
    if (s.name == "blusim_slo_breach_total")
      breach += static_cast<uint64_t>(s.value);
    if (s.name == "blusim_slo_shed_total")
      shed += static_cast<uint64_t>(s.value);
  }
  EXPECT_EQ(shed, static_cast<uint64_t>(kWriters) * kPerWriter / 10);
  EXPECT_EQ(ok + breach,
            static_cast<uint64_t>(kWriters) * kPerWriter - shed);
}

TEST(WindowedHistogramTest, ConcurrentObservers) {
  WindowOptions w;
  w.window_us = 1'000'000;
  w.slices = 10;
  WindowedHistogram h(w);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.ObserveAt(static_cast<uint64_t>(i % 1000),
                    static_cast<int64_t>(t * 100 + i));
      }
    });
  }
  std::thread reader([&h] {
    for (int i = 0; i < 200; ++i) (void)h.Snapshot(1000);
  });
  for (std::thread& t : threads) t.join();
  reader.join();
  EXPECT_EQ(h.Snapshot(1000).count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace blusim::obs
