// Property tests over the calibrated cost model: the relative behaviours
// every reproduced experiment depends on.

#include <gtest/gtest.h>

#include "gpusim/cost_model.h"

namespace blusim::gpusim {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  HostSpec host_;
  DeviceSpec device_;
  CostModel cost_{host_, device_};
};

TEST_F(CostModelTest, PinnedTransfersAboutFourTimesFaster) {
  // Section 2.1.2: "more than 4X faster ... using PCI-e gen 3".
  const uint64_t bytes = 64ULL << 20;
  const double ratio =
      static_cast<double>(cost_.TransferTime(bytes, false)) /
      static_cast<double>(cost_.TransferTime(bytes, true));
  EXPECT_GT(ratio, 3.8);
  EXPECT_LT(ratio, 5.0);
}

TEST_F(CostModelTest, TransferMonotoneInBytes) {
  SimTime prev = 0;
  for (uint64_t mb = 1; mb <= 512; mb *= 2) {
    const SimTime t = cost_.TransferTime(mb << 20, true);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_F(CostModelTest, HostParallelFactorMonotoneAndTiered) {
  double prev = 0.0;
  for (int dop : {1, 2, 8, 16, 24, 32, 48, 64, 96}) {
    const double f = cost_.HostParallelFactor(dop);
    EXPECT_GT(f, prev) << "dop " << dop;
    EXPECT_LE(f, static_cast<double>(dop));
    prev = f;
  }
  // SMT tiers flatten: the per-thread contribution shrinks past the core
  // count (matches the paper's 1-stream throughput curve).
  const double c24 = cost_.HostParallelFactor(24);
  const double c48 = cost_.HostParallelFactor(48);
  const double c96 = cost_.HostParallelFactor(96);
  EXPECT_LT((c48 - c24) / 24, (c24 - 1) / 23);
  EXPECT_LT((c96 - c48) / 48, (c48 - c24) / 24);
}

TEST_F(CostModelTest, LaunchOverheadDominatesTinyInputs) {
  // The T1 crossover: for a small group-by, CPU elapsed at full degree
  // beats the device path (transfer + kernel overhead).
  GroupByKernelParams p;
  p.rows = 5000;
  p.groups = 100;
  p.num_aggregates = 3;
  const SimTime device =
      cost_.TransferTime(p.rows * 40, true) +
      cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p);
  const SimTime cpu_elapsed = static_cast<SimTime>(
      static_cast<double>(cost_.HostGroupByTime(p.rows, p.groups,
                                                p.num_aggregates, 1)) /
      cost_.HostParallelFactor(24));
  EXPECT_LT(cpu_elapsed, device);
}

TEST_F(CostModelTest, DeviceWinsLargeGroupBys) {
  // Above the crossover the device path must win, or figure 5 cannot
  // reproduce.
  GroupByKernelParams p;
  p.rows = 2000000;
  p.groups = 50000;
  p.num_aggregates = 5;
  const SimTime device =
      cost_.TransferTime(p.rows * 44, true) +
      cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p) +
      cost_.HashTableInitTime(128 * 1024 * 48);
  const SimTime cpu_elapsed = static_cast<SimTime>(
      static_cast<double>(cost_.HostGroupByTime(p.rows, p.groups,
                                                p.num_aggregates, 1)) /
      cost_.HostParallelFactor(24));
  EXPECT_GT(cpu_elapsed, device);
}

TEST_F(CostModelTest, SharedMemKernelWinsFewGroups) {
  GroupByKernelParams p;
  p.rows = 4000000;
  p.groups = 12;
  p.num_aggregates = 3;
  EXPECT_LT(cost_.GroupByKernelTime(GroupByKernelKind::kSharedMem, p),
            cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p));
}

TEST_F(CostModelTest, SharedMemKernelLosesManyGroups) {
  GroupByKernelParams p;
  p.rows = 4000000;
  p.groups = 2000000;
  p.num_aggregates = 3;
  EXPECT_GT(cost_.GroupByKernelTime(GroupByKernelKind::kSharedMem, p),
            cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p));
}

TEST_F(CostModelTest, RowLockKernelWinsManyAggregates) {
  // Section 4.3.3: more than ~5 aggregates favors the single row lock.
  GroupByKernelParams p;
  p.rows = 4000000;
  p.groups = 50000;
  p.num_aggregates = 8;
  EXPECT_LT(cost_.GroupByKernelTime(GroupByKernelKind::kRowLock, p),
            cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p));
}

TEST_F(CostModelTest, RowLockKernelWinsLowContention) {
  GroupByKernelParams p;
  p.rows = 4000000;
  p.groups = 2000000;  // rows/groups = 2
  p.num_aggregates = 3;
  EXPECT_LE(cost_.GroupByKernelTime(GroupByKernelKind::kRowLock, p),
            cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p));
}

TEST_F(CostModelTest, RowLockKernelLosesHighContention) {
  GroupByKernelParams p;
  p.rows = 4000000;
  p.groups = 40;  // rows/groups = 100000: heavy lock serialization
  p.num_aggregates = 3;
  EXPECT_GT(cost_.GroupByKernelTime(GroupByKernelKind::kRowLock, p),
            cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p));
}

TEST_F(CostModelTest, LockTypedPayloadCostsMore) {
  GroupByKernelParams p;
  p.rows = 1000000;
  p.groups = 10000;
  p.num_aggregates = 4;
  const SimTime atomic_time =
      cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p);
  p.lock_typed_payload = true;
  EXPECT_GT(cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p),
            atomic_time);
}

TEST_F(CostModelTest, WideKeyCostsMore) {
  GroupByKernelParams p;
  p.rows = 1000000;
  p.groups = 10000;
  p.num_aggregates = 2;
  const SimTime narrow =
      cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p);
  p.wide_key = true;
  EXPECT_GT(cost_.GroupByKernelTime(GroupByKernelKind::kRegular, p), narrow);
}

TEST_F(CostModelTest, RegistrationIsExpensiveRelativeToTransfer) {
  // Section 2.1.2's motivation for registering once at startup.
  const uint64_t bytes = 256ULL << 20;
  EXPECT_GT(cost_.HostRegistrationTime(bytes),
            10 * cost_.TransferTime(bytes, true));
}

TEST_F(CostModelTest, GpuSortBeatsCpuSortAtScale) {
  const uint64_t n = 10000000;
  const SimTime gpu = cost_.SortKernelTime(n) +
                      2 * cost_.TransferTime(n * 8, true);
  EXPECT_LT(gpu, cost_.HostSortTime(n, 24));
}

TEST_F(CostModelTest, CpuSortBeatsGpuSortSmall) {
  const uint64_t n = 10000;
  const SimTime gpu = cost_.SortKernelTime(n) +
                      2 * cost_.TransferTime(n * 8, true);
  EXPECT_GT(gpu, cost_.HostSortTime(n, 24));
}

}  // namespace
}  // namespace blusim::gpusim
