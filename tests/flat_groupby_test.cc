// Tests for the flat open-addressing CPU aggregation path: FlatAggTable
// mechanics (probe collisions, grow-and-rehash), FlatMap64 (join build
// side), and CpuGroupBy's partitioned merge under adversarial keys whose
// hashes collide across merge shards and across flat-table probes. All
// group-by results are differential-checked against the previous
// implementation's algorithm (std::unordered_map + serial merge).

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <unordered_map>

#include "columnar/table.h"
#include "common/bit_util.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "runtime/cpu_groupby.h"
#include "runtime/evaluators.h"
#include "runtime/flat_table.h"
#include "runtime/partition_sweep.h"

namespace blusim::runtime {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;

// Inverse of Mix64 (fmix64): lets tests construct keys with chosen hash
// values, e.g. hashes identical in the partition bits (top) and the probe
// bits (bottom) at the same time.
uint64_t UnMix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0x9cb4b2f8129337dbULL;  // modular inverse of 0xc4ceb9fe1a85ec53
  h ^= h >> 33;
  h *= 0x4f74430c22a54005ULL;  // modular inverse of 0xff51afd7ed558ccd
  h ^= h >> 33;
  return h;
}

TEST(UnMix64Test, InvertsMix64) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t h = rng.Next();
    EXPECT_EQ(Mix64(UnMix64(h)), h);
    EXPECT_EQ(UnMix64(Mix64(h)), h);
  }
}

TEST(HashPartitionTest, UsesTopBitsAndCoversRange) {
  EXPECT_EQ(HashPartition(~0ULL, 1), 0u);
  EXPECT_EQ(HashPartition(~0ULL, 8), 7u);
  EXPECT_EQ(HashPartition(0, 8), 0u);
  // Only the top 3 bits matter for 8 partitions.
  EXPECT_EQ(HashPartition(0x1FFFFFFFFFFFFFFFULL, 8), 0u);
  EXPECT_EQ(HashPartition(0x2000000000000000ULL, 8), 1u);
}

TEST(HashTableCapacityTest, PowerOfTwoWithHeadroom) {
  EXPECT_EQ(HashTableCapacity(0), 64u);
  EXPECT_EQ(HashTableCapacity(100), 256u);
  for (uint64_t g : {1ULL, 63ULL, 1000ULL, 1000000ULL}) {
    const uint64_t cap = HashTableCapacity(g);
    EXPECT_EQ(cap & (cap - 1), 0u);
    EXPECT_GE(cap, g + g / 2);
  }
}

// Minimal plan: one int64 key, SUM(v) + COUNT(*).
struct PlanFixture {
  PlanFixture() {
    Schema schema;
    schema.AddField({"k", DataType::kInt64, false});
    schema.AddField({"v", DataType::kInt64, false});
    table = std::make_unique<Table>(schema);
    table->column(0).AppendInt64(0);
    table->column(1).AppendInt64(0);
    GroupBySpec spec;
    spec.key_columns = {0};
    spec.aggregates = {{AggFn::kSum, 1, "s"}, {AggFn::kCount, -1, "n"}};
    auto p = GroupByPlan::Make(*table, spec);
    BLUSIM_CHECK(p.ok());
    plan = std::make_unique<GroupByPlan>(std::move(p).value());
  }
  std::unique_ptr<Table> table;
  std::unique_ptr<GroupByPlan> plan;
};

TEST(FlatAggTableTest, ProbeCollisionsKeepKeysDistinct) {
  PlanFixture fx;
  // Sized for 0 groups (capacity 64); every key gets the SAME hash, so all
  // inserts fight over one probe chain and key comparison must resolve
  // them.
  FlatAggTable<uint64_t> t(fx.plan.get(), 0);
  constexpr uint64_t kHash = 0xDEADBEEFCAFEF00DULL;
  std::map<uint64_t, int64_t> ref;
  for (uint64_t k = 0; k < 300; ++k) {
    const uint32_t g = t.FindOrInsert(k, kHash, static_cast<uint32_t>(k));
    t.group_accs(g)[0].i64 += static_cast<int64_t>(k * 7);
    ref[k] += static_cast<int64_t>(k * 7);
  }
  // Second pass must find the same groups, not insert new ones.
  for (uint64_t k = 0; k < 300; ++k) {
    const uint32_t g = t.FindOrInsert(k, kHash, 0);
    t.group_accs(g)[0].i64 += 1;
    ref[k] += 1;
  }
  ASSERT_EQ(t.num_groups(), 300u);
  EXPECT_GE(t.rehash_count(), 1u);  // capacity 64 -> forced growth
  for (uint32_t g = 0; g < t.num_groups(); ++g) {
    EXPECT_EQ(t.group_accs(g)[0].i64, ref[t.group_key(g)]);
    EXPECT_EQ(t.group_hash(g), kHash);
  }
}

TEST(FlatAggTableTest, GrowAndRehashPreservesAccumulators) {
  PlanFixture fx;
  FlatAggTable<uint64_t> t(fx.plan.get(), 4);  // deliberately undersized
  constexpr uint64_t kGroups = 50000;
  for (uint64_t k = 0; k < kGroups; ++k) {
    const uint32_t g = t.FindOrInsert(k, Mix64(k), static_cast<uint32_t>(k));
    t.group_accs(g)[0].i64 += static_cast<int64_t>(k);
    t.group_accs(g)[1].i64 += 1;
  }
  ASSERT_EQ(t.num_groups(), kGroups);
  EXPECT_GE(t.rehash_count(), 8u);  // 64 -> 128 -> ... well past 16384
  ASSERT_TRUE(IsPow2(t.capacity()));
  for (uint64_t k = 0; k < kGroups; k += 997) {
    const uint32_t g = t.FindOrInsert(k, Mix64(k), 0);
    EXPECT_EQ(t.group_key(g), k);
    EXPECT_EQ(t.group_accs(g)[0].i64, static_cast<int64_t>(k));
    EXPECT_EQ(t.group_accs(g)[1].i64, 1);
    EXPECT_EQ(t.group_rep_row(g), static_cast<uint32_t>(k));
  }
}

TEST(FlatMap64Test, InsertFindDuplicatesAndGrowth) {
  FlatMap64 m(0);
  Rng rng(42);
  std::map<int64_t, uint32_t> ref;
  for (int i = 0; i < 20000; ++i) {
    const int64_t k = static_cast<int64_t>(rng.Next() % 30000);
    const bool inserted = m.Insert(k, static_cast<uint32_t>(i));
    const bool ref_inserted = ref.emplace(k, static_cast<uint32_t>(i)).second;
    EXPECT_EQ(inserted, ref_inserted);
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const uint32_t* got = m.Find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(m.Find(-12345), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end CpuGroupBy differential tests against the previous
// implementation's algorithm: per-morsel std::unordered_map + serial merge.

struct RefEntry {
  int64_t sum = 0;
  int64_t count = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
};

// The pre-flat-table CPU algorithm, reduced to the shapes these tests use
// (int64 key; SUM/COUNT/MIN/MAX over int64). Kept as the differential
// reference for the new merge.
std::unordered_map<int64_t, RefEntry> ReferenceGroupBy(const Table& t) {
  std::unordered_map<int64_t, RefEntry> ref;
  const auto& keys = t.column(0).int64_data();
  const auto& vals = t.column(1).int64_data();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    RefEntry& e = ref[keys[i]];
    e.sum += vals[i];
    ++e.count;
    e.min = std::min(e.min, vals[i]);
    e.max = std::max(e.max, vals[i]);
  }
  return ref;
}

void RunDifferential(const Table& t, ThreadPool* pool,
                     CpuGroupByStats* stats) {
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"},
                     {AggFn::kCount, -1, "n"},
                     {AggFn::kMin, 1, "mn"},
                     {AggFn::kMax, 1, "mx"}};
  auto plan = GroupByPlan::Make(t, spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto out = CpuGroupBy::Execute(plan.value(), pool, nullptr,
                                 /*estimated_groups=*/0, stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  const auto ref = ReferenceGroupBy(t);
  ASSERT_EQ(out->num_groups, ref.size());
  const Table& res = *out->table;
  for (size_t r = 0; r < res.num_rows(); ++r) {
    const int64_t key = res.column(0).int64_data()[r];
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "unexpected group key " << key;
    EXPECT_EQ(res.column(1).int64_data()[r], it->second.sum);
    EXPECT_EQ(res.column(2).int64_data()[r], it->second.count);
    EXPECT_EQ(res.column(3).int64_data()[r], it->second.min);
    EXPECT_EQ(res.column(4).int64_data()[r], it->second.max);
  }
}

// Keys engineered so every group's hash agrees in BOTH the top 6 bits
// (one merge shard gets everything, kMaxMergeShards = 64) and the low 20
// bits (every probe starts at the same slot until growth spreads them).
TEST(CpuGroupByAdversarialTest, CrossPartitionAndProbeCollisions) {
  constexpr uint64_t kGroups = 512;
  constexpr uint64_t kRowsPerGroup = 400;  // 204800 rows -> 4 morsels
  std::vector<int64_t> keys(kGroups);
  for (uint64_t i = 0; i < kGroups; ++i) {
    const uint64_t hash =
        (0x2AULL << 58) | (i << 20) | 0xFFFFFULL;  // same top 6 + low 20 bits
    keys[i] = static_cast<int64_t>(UnMix64(hash));
  }

  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  Rng rng(7);
  for (uint64_t r = 0; r < kGroups * kRowsPerGroup; ++r) {
    t.column(0).AppendInt64(keys[rng.Below(kGroups)]);
    t.column(1).AppendInt64(rng.Range(-1000, 1000));
  }

  ThreadPool pool(4);
  CpuGroupByStats stats;
  RunDifferential(t, &pool, &stats);
  // The merge must actually have been partitioned (no global mutex path).
  EXPECT_GT(stats.merge_shards, 1u);
  EXPECT_GE(stats.partial_groups, kGroups);
}

// groups ~= rows: the sampled keys are all distinct, so the chain takes the
// partition-first strategy. Every partition's table holds final groups
// (their sum is the row count, with no morsel-local duplicate to merge).
// The key hashes are 2r + 1: small, so they share their top bits and the
// sweep puts every row in partition 0, which runs alone but correctly.
TEST(CpuGroupByAdversarialTest, HighCardinalityForcesGrowth) {
  constexpr uint64_t kRows = 200000;  // 4 morsels
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  for (uint64_t r = 0; r < kRows; ++r) {
    // Distinct key per row, scrambled so packed keys are not sequential.
    t.column(0).AppendInt64(static_cast<int64_t>(UnMix64(r * 2 + 1)));
    t.column(1).AppendInt64(static_cast<int64_t>(r % 97));
  }

  ThreadPool pool(4);
  CpuGroupByStats stats;
  RunDifferential(t, &pool, &stats);
  EXPECT_EQ(stats.strategy, CpuGroupByStrategy::kPartition);
  EXPECT_EQ(stats.partial_groups, kRows);  // every partition fully distinct
  EXPECT_EQ(stats.merge_shards, 0u);       // no merge
  EXPECT_GT(stats.partitions, 1u);
  EXPECT_EQ(stats.nonempty_partitions, 1u);
}

// Near-unique keys with random hashes that all share their top 12 bits.
// Zero top bits make the sampled KMV estimate read every key as new, so the
// chain partitions first, and the sweep sends every row to partition 0:
// one partition runs alone, but correctly. (Any other shared top bits make
// the sample underestimate, and the local strategy runs instead.)
TEST(CpuGroupByAdversarialTest, PartitionFirstHashesSharingTopBits) {
  constexpr uint64_t kRows = 150000;  // 3 morsels
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  Rng rng(11);
  for (uint64_t r = 0; r < kRows; ++r) {
    const uint64_t hash = rng.Next() >> 12;
    t.column(0).AppendInt64(static_cast<int64_t>(UnMix64(hash)));
    t.column(1).AppendInt64(rng.Range(-1000, 1000));
  }

  ThreadPool pool(4);
  CpuGroupByStats stats;
  RunDifferential(t, &pool, &stats);
  EXPECT_EQ(stats.strategy, CpuGroupByStrategy::kPartition);
  EXPECT_GT(stats.partitions, 1u);
  EXPECT_EQ(stats.nonempty_partitions, 1u);
}

// Serial (no pool) and parallel runs must agree exactly for integer
// aggregates regardless of merge order.
TEST(CpuGroupByAdversarialTest, SerialAndParallelAgree) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  Rng rng(31337);
  for (uint64_t r = 0; r < 150000; ++r) {
    t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(5000)));
    t.column(1).AppendInt64(rng.Range(-50, 50));
  }
  CpuGroupByStats serial_stats;
  RunDifferential(t, nullptr, &serial_stats);
  EXPECT_EQ(serial_stats.merge_shards, 1u);
  ThreadPool pool(4);
  CpuGroupByStats parallel_stats;
  RunDifferential(t, &pool, &parallel_stats);
  EXPECT_GT(parallel_stats.merge_shards, 1u);
}

// The partition-first strategy is the same computation serial or parallel:
// its partitions depend only on the row count, each keeps its rows in
// input order, and they are concatenated in partition order. The two
// results agree value for value and row for row.
TEST(CpuGroupByAdversarialTest, PartitionFirstSerialAndParallelAgreeExactly) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  Rng rng(4242);
  for (uint64_t r = 0; r < 180000; ++r) {
    t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(4000000)));
    t.column(1).AppendInt64(rng.Range(-50, 50));
  }
  CpuGroupByStats serial_stats;
  RunDifferential(t, nullptr, &serial_stats);
  ThreadPool pool(4);
  CpuGroupByStats parallel_stats;
  RunDifferential(t, &pool, &parallel_stats);
  EXPECT_EQ(serial_stats.strategy, CpuGroupByStrategy::kPartition);
  EXPECT_EQ(parallel_stats.strategy, CpuGroupByStrategy::kPartition);
  EXPECT_EQ(serial_stats.partitions, parallel_stats.partitions);

  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"}, {AggFn::kMin, 1, "mn"}};
  auto plan = GroupByPlan::Make(t, spec);
  ASSERT_TRUE(plan.ok());
  auto serial = CpuGroupBy::Execute(plan.value(), nullptr);
  auto parallel = CpuGroupBy::Execute(plan.value(), &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->table->num_rows(), parallel->table->num_rows());
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(serial->table->column(c).int64_data(),
              parallel->table->column(c).int64_data());
  }
}

// The strategy follows the expected distinct keys per row of a uniform
// one-morsel sample, computed from the group-count estimate: a
// mid-cardinality selection (65536 keys over 200k rows reads about 0.69)
// stays local, a near-unique one partitions first, and a near-unique
// selection of one morsel has no merge to skip and stays local. Each case
// runs with the router's estimate and, with none, counts its keys itself.
TEST(CpuGroupByAdversarialTest, StrategyFollowsTheSampledDistinctRatio) {
  Schema schema;
  schema.AddField({"mid", DataType::kInt64, false});
  schema.AddField({"unique", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  Rng rng(77);
  for (uint64_t r = 0; r < 400000; ++r) {
    t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(65536)));
    t.column(1).AppendInt64(static_cast<int64_t>(UnMix64(r)));
    t.column(2).AppendInt64(1);
  }
  std::vector<uint32_t> every_other;
  for (uint32_t r = 0; r < t.num_rows(); r += 2) every_other.push_back(r);
  const std::vector<uint32_t> one_morsel(
      every_other.begin(), every_other.begin() + CpuGroupBy::kMorselRows);

  struct Case {
    int key;
    const std::vector<uint32_t>* selection;
    CpuGroupByStrategy strategy;
  };
  const Case cases[] = {
      {0, &every_other, CpuGroupByStrategy::kLocal},
      {1, &every_other, CpuGroupByStrategy::kPartition},
      {1, &one_morsel, CpuGroupByStrategy::kLocal},
  };
  ThreadPool pool(3);
  for (const Case& c : cases) {
    GroupBySpec spec;
    spec.key_columns = {c.key};
    spec.aggregates = {{AggFn::kSum, 2, "s"}};
    auto plan = GroupByPlan::Make(t, spec);
    ASSERT_TRUE(plan.ok());
    const uint64_t rows = c.selection->size();
    const uint64_t estimate =
        CountDistinctKeys(plan.value(), &pool, c.selection, 512);
    EXPECT_EQ(CpuGroupBy::ChooseStrategy(rows, estimate), c.strategy)
        << "key " << c.key << " estimate " << estimate;
    for (const uint64_t given : {estimate, uint64_t{0}}) {
      CpuGroupByStats stats;
      auto out =
          CpuGroupBy::Execute(plan.value(), &pool, c.selection, given, &stats);
      ASSERT_TRUE(out.ok());
      EXPECT_EQ(stats.strategy, c.strategy) << "key " << c.key;
      int64_t total = 0;
      for (int64_t s : out->table->column(1).int64_data()) total += s;
      EXPECT_EQ(total, static_cast<int64_t>(rows));
    }
  }
  // The rule's edges: one group per row partitions past one morsel, a
  // lone morsel never does, and a bounded domain far below the row count
  // stays local.
  const uint64_t two_morsels = 2 * CpuGroupBy::kMorselRows;
  EXPECT_EQ(CpuGroupBy::ChooseStrategy(two_morsels, two_morsels),
            CpuGroupByStrategy::kPartition);
  EXPECT_EQ(CpuGroupBy::ChooseStrategy(CpuGroupBy::kMorselRows,
                                       CpuGroupBy::kMorselRows),
            CpuGroupByStrategy::kLocal);
  EXPECT_EQ(CpuGroupBy::ChooseStrategy(4000000, 65536),
            CpuGroupByStrategy::kLocal);
}

}  // namespace
}  // namespace blusim::runtime
