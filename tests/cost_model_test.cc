// Property tests over the calibrated cost model: the relative behaviours
// every reproduced experiment depends on.

#include <gtest/gtest.h>

#include <cmath>

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

// A 1M-row, 50k-group fused group-by over two devices.
PartitionedShape FusedShape() {
  PartitionedShape s;
  s.rows = 1000000;
  s.groups = 50000;
  s.num_aggregates = 2;
  s.key_bytes = 8;
  s.payload_bytes = 16;
  s.record_bytes = 24;
  s.gpu_bytes_per_row = 24;
  s.entry_bytes = 32;
  s.max_rows_per_chunk = 400000;
  s.num_devices = 2;
  s.cpu_dop = 24;
  s.fused = true;
  return s;
}

TEST_F(CostModelTest, OnePartitionIsStagePlusOneChunk) {
  // The single-device run: host staging of every row, then one chunk's
  // transfer + table init + kernel + readback. No sweep, no merge.
  PartitionedShape s = FusedShape();
  s.num_partitions = 1;
  const double host_factor = cost_.HostParallelFactor(s.cpu_dop);
  const uint64_t staged_bytes = s.rows * s.gpu_bytes_per_row;
  const double stage =
      (static_cast<double>(cost_.HostKeyGenTime(s.rows, 1)) +
       static_cast<double>(cost_.HostMemcpyTime(staged_bytes))) /
      host_factor;
  const uint64_t table_bytes = 131072 * s.entry_bytes;  // pow2 >= 2 x groups
  GroupByKernelParams p;
  p.rows = s.rows;
  p.groups = s.groups;
  p.num_aggregates = s.num_aggregates;
  p.key_bytes = s.key_bytes;
  p.payload_bytes = s.payload_bytes;
  p.record_bytes = s.record_bytes;
  const double chunk =
      static_cast<double>(cost_.TransferTime(staged_bytes, true)) +
      static_cast<double>(cost_.HashTableInitTime(table_bytes)) +
      static_cast<double>(
          cost_.FusedScanAggregateTime(GroupByKernelKind::kRegular, p)) +
      static_cast<double>(cost_.TransferTime(table_bytes, true));
  EXPECT_EQ(cost_.PartitionedTime(s, 0.0),
            static_cast<SimTime>(stage + chunk + 0.5));

  // Hash partitioning the same input charges the sweep and the merge that
  // one partition skips: at an all-CPU split they frame the CPU lane.
  PartitionedShape p8 = FusedShape();
  p8.num_partitions = 8;
  const double sweep = (static_cast<double>(cost_.HostKeyGenTime(s.rows, 1)) +
                        static_cast<double>(cost_.HostMemcpyTime(s.rows * 4))) /
                       host_factor;
  const double cpu_lane =
      static_cast<double>(
          cost_.HostGroupByTime(s.rows, s.groups, s.num_aggregates, 1)) /
      host_factor;
  const double merge =
      static_cast<double>(cost_.HostMemcpyTime(s.groups * s.entry_bytes)) +
      static_cast<double>(s.groups) * 0.004;
  EXPECT_EQ(cost_.PartitionedTime(p8, 1.0),
            static_cast<SimTime>(sweep + cpu_lane + merge + 0.5));
}

TEST_F(CostModelTest, ChosenCpuFractionIsWholePartitions) {
  PartitionedShape s = FusedShape();
  s.num_partitions = 8;
  const double f = cost_.ChoosePartitionedCpuFraction(s);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
  EXPECT_DOUBLE_EQ(f * 8, std::round(f * 8));
  // It is the argmin over every realizable share.
  for (int i = 0; i <= 8; ++i) {
    EXPECT_LE(cost_.PartitionedTime(s, f), cost_.PartitionedTime(s, i / 8.0))
        << i << "/8";
  }
  // No devices: everything runs on the CPU.
  s.num_devices = 0;
  EXPECT_EQ(cost_.ChoosePartitionedCpuFraction(s), 1.0);
}

}  // namespace
}  // namespace blusim::gpusim
