#ifndef BLUSIM_OBS_METRICS_H_
#define BLUSIM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"

namespace blusim::obs {

// Sorted (key, value) label pairs identifying one time series within a
// metric family, Prometheus-style.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing counter. Updates are sharded across cache lines
// so concurrent Engine::Execute streams never contend on one atomic (the
// TSan `concurrency` suite hammers these from every worker thread).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta = 1) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr int kNumShards = 16;

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  static size_t ShardIndex();

  Shard shards_[kNumShards];
};

// Instantaneous value (bytes in use, queue depth). `SetMax` keeps the
// observed maximum, for high-water instruments.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  // Raises the gauge to `v` if above the current value (atomic max).
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket latency histogram: power-of-two bucket bounds
// 1, 2, 4, ... 2^(kNumBuckets-1) microseconds plus +Inf. Bucket counts are
// plain atomics (distinct hot queries mostly hit distinct buckets, so
// sharding buys little here; the counters above carry the hot paths).
class Histogram {
 public:
  // Bounded bucket count: le 2^0 .. 2^28 us (~268 s), then +Inf. Wall
  // latencies of never-fits queries and multiuser tails run to seconds.
  static constexpr int kNumBuckets = 29;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value);

  // Upper bound of bucket `i` (exclusive of the +Inf slot).
  static uint64_t BucketBound(int i) { return 1ULL << i; }

  // Non-cumulative count of bucket `i` in [0, kNumBuckets] where index
  // kNumBuckets is the +Inf bucket.
  uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets + 1] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

enum class MetricType : uint8_t { kCounter = 0, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

// Point-in-time copy of one instrument, for the exporters.
struct MetricSample {
  std::string name;
  LabelSet labels;
  std::string help;
  MetricType type = MetricType::kCounter;
  // kCounter / kGauge:
  int64_t value = 0;
  // kHistogram (non-cumulative bucket counts; bounds via BucketBound):
  std::vector<uint64_t> bucket_counts;
  uint64_t sum = 0;
  uint64_t count = 0;
};

// Registry of named instruments. Registration (Get*) takes a mutex and is
// expected at component construction time; the returned pointers are
// stable for the registry's lifetime and lock-free to update, so hot paths
// cache them. The same (name, labels) pair always returns the same
// instrument; requesting it with a conflicting type aborts (a programming
// error, not a runtime condition).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const LabelSet& labels = {},
                      const std::string& help = "") EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {},
                  const std::string& help = "") EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name,
                          const LabelSet& labels = {},
                          const std::string& help = "") EXCLUDES(mu_);

  // Samples every instrument, sorted by (name, labels) so families are
  // contiguous for the text exporters.
  std::vector<MetricSample> Snapshot() const EXCLUDES(mu_);

  size_t num_instruments() const EXCLUDES(mu_);

 private:
  struct Instrument {
    std::string name;
    LabelSet labels;
    std::string help;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument* FindOrCreate(const std::string& name, const LabelSet& labels,
                           const std::string& help, MetricType type)
      EXCLUDES(mu_);

  mutable common::Mutex mu_{"obs.MetricsRegistry.mu",
                            common::LockRank::kObs};
  // deque: stable addresses as instruments register.
  std::deque<Instrument> instruments_ GUARDED_BY(mu_);
  std::map<std::string, size_t> index_ GUARDED_BY(mu_);
};

}  // namespace blusim::obs

#endif  // BLUSIM_OBS_METRICS_H_
