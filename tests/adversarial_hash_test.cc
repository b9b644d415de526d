// Adversarial grouping keys for the device hash tables: packed narrow keys
// whose low 32 bits are constant, the shape a multi-column key takes when
// its last column holds one value (CCAT packing puts the last column in
// the low bits). Every kernel, in both staging modes and through both
// fan-outs of the group-by driver, must match the CPU chain while the
// kernels' own probe counters stay near one probe per row. A mod hash over
// the raw key would start every probe in the same bucket.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "groupby/gpu_groupby.h"
#include "groupby/kernels.h"
#include "groupby/layout.h"
#include "groupby/partitioned.h"
#include "groupby/staging.h"
#include "runtime/cpu_groupby.h"
#include "sched/gpu_scheduler.h"

namespace blusim::groupby {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;
using gpusim::GroupByKernelKind;
using runtime::AggFn;
using runtime::GroupByPlan;
using runtime::GroupBySpec;

// Mean probes per row the counters may report. Linear probing at the
// tables' load factor (<= ~0.67) averages under 2; a clustered hash
// averages about half the group count.
constexpr double kMaxProbesPerRow = 4.0;

// (key column values..., sum, count) per group.
using GroupMap = std::map<std::vector<int64_t>, std::pair<int64_t, int64_t>>;

// Rows over `groups` groups keyed (g, 7): two int32 columns pack to
// (g << 32) | 7. With `wide` the key columns are int64, so the packed key
// is 128 bits and takes the locked wide-key path.
std::shared_ptr<Table> MakeTable(uint64_t rows, uint64_t groups, bool wide) {
  const DataType key_type = wide ? DataType::kInt64 : DataType::kInt32;
  Schema schema;
  schema.AddField({"g", key_type, false});
  schema.AddField({"c", key_type, false});
  schema.AddField({"v", DataType::kInt64, false});
  auto t = std::make_shared<Table>(schema);
  for (uint64_t i = 0; i < rows; ++i) {
    const int64_t g = static_cast<int64_t>((i * 7919) % groups);
    if (wide) {
      t->column(0).AppendInt64(g);
      t->column(1).AppendInt64(7);
    } else {
      t->column(0).AppendInt32(static_cast<int32_t>(g));
      t->column(1).AppendInt32(7);
    }
    t->column(2).AppendInt64(static_cast<int64_t>(i % 13));
  }
  return t;
}

GroupBySpec Spec() {
  GroupBySpec spec;
  spec.key_columns = {0, 1};
  spec.aggregates = {{AggFn::kSum, 2, "s"}, {AggFn::kCount, -1, "n"}};
  return spec;
}

int64_t KeyValue(const Table& t, size_t column, size_t row) {
  const columnar::Column& col = t.column(column);
  return col.type() == DataType::kInt32 ? col.int32_data()[row]
                                        : col.int64_data()[row];
}

// The CPU chain's groups: output columns are the keys, then SUM, COUNT.
GroupMap CpuGroups(const GroupByPlan& plan, runtime::ThreadPool* pool) {
  auto cpu = runtime::CpuGroupBy::Execute(plan, pool);
  EXPECT_TRUE(cpu.ok()) << cpu.status().ToString();
  GroupMap out;
  if (!cpu.ok()) return out;
  const Table& t = *cpu->table;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out[{KeyValue(t, 0, r), KeyValue(t, 1, r)}] = {
        t.column(2).int64_data()[r], t.column(3).int64_data()[r]};
  }
  return out;
}

GroupMap DriverGroups(const Table& t) {
  GroupMap out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out[{KeyValue(t, 0, r), KeyValue(t, 1, r)}] = {
        t.column(2).int64_data()[r], t.column(3).int64_data()[r]};
  }
  return out;
}

double ProbesPerRow(const KernelWork& work, uint64_t rows) {
  return static_cast<double>(work.probes) /
         static_cast<double>(std::max<uint64_t>(1, rows));
}

struct ForcedRun {
  GroupMap groups;
  KernelWork work;
  uint64_t rows = 0;
};

// Stages `plan` in `mode`, runs `kind` directly on `device` and reads the
// groups back from the table.
ForcedRun RunForced(gpusim::SimDevice* device, gpusim::PinnedHostPool* pinned,
                    runtime::ThreadPool* pool, const GroupByPlan& plan,
                    GroupByKernelKind kind, StageMode mode) {
  ForcedRun run;
  auto staged = StageForDevice(plan, pinned, pool, nullptr, mode);
  EXPECT_TRUE(staged.ok()) << staged.status().ToString();
  if (!staged.ok()) return run;
  run.rows = staged->rows;
  const HashTableLayout layout(plan);
  const uint64_t capacity = ChooseCapacity(staged->kmv_estimate);
  auto reservation = device->memory().Reserve(staged->pinned_bytes() +
                                              layout.TableBytes(capacity));
  EXPECT_TRUE(reservation.ok());
  if (!reservation.ok()) return run;

  auto upload = [&](const gpusim::PinnedBuffer& src, uint64_t bytes,
                    gpusim::DeviceBuffer* dst) {
    auto buf = device->memory().Alloc(reservation.value(), bytes);
    ASSERT_TRUE(buf.ok());
    device->CopyToDevice(src.data(), &buf.value(), bytes, true);
    *dst = std::move(buf).value();
  };
  DeviceInput input;
  FusedDeviceInput fused;
  GroupByKernelArgs args;
  if (staged->fused) {
    fused.rows = staged->rows;
    fused.layout = staged->record_layout;
    upload(staged->records, staged->transfer_bytes, &fused.records);
    args.fused = &fused;
  } else {
    input.rows = staged->rows;
    input.wide_key = staged->wide_key;
    upload(staged->keys, staged->keys.size(), &input.keys);
    upload(staged->row_ids, staged->row_ids.size(), &input.row_ids);
    input.slots.resize(plan.slots().size());
    for (size_t s = 0; s < plan.slots().size(); ++s) {
      if (staged->payloads[s].valid()) {
        upload(staged->payloads[s], staged->payloads[s].size(),
               &input.slots[s].values);
      }
    }
    args.input = &input;
  }
  auto table = device->memory().Alloc(reservation.value(),
                                      layout.TableBytes(capacity));
  EXPECT_TRUE(table.ok());
  if (!table.ok()) return run;
  EXPECT_TRUE(
      InitHashTable(device, layout, plan, table->data(), capacity).ok());

  std::atomic<uint64_t> overflow{0};
  args.plan = &plan;
  args.layout = &layout;
  args.table = table->data();
  args.capacity = capacity;
  args.overflow = &overflow;
  args.work = &run.work;
  Status st;
  switch (kind) {
    case GroupByKernelKind::kRegular: st = RunKernelRegular(device, args); break;
    case GroupByKernelKind::kSharedMem:
      st = RunKernelSharedMem(device, args);
      break;
    case GroupByKernelKind::kRowLock: st = RunKernelRowLock(device, args); break;
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(overflow.load(), 0u);

  // Entries hold the key, then the slots; the key columns are read back
  // through a representative row of the input table.
  const uint64_t entry_bytes = static_cast<uint64_t>(layout.entry_bytes());
  const Table& in = plan.table();
  for (uint64_t e = 0; e < capacity; ++e) {
    const char* entry = table->data() + e * entry_bytes;
    uint32_t rep;
    std::memcpy(&rep, entry + layout.rep_row_offset(), 4);
    if (layout.wide_key()) {
      if (rep == kEmptyRow) continue;
    } else {
      uint64_t key;
      std::memcpy(&key, entry, 8);
      if (key == kEmptyKey64) continue;
    }
    if (staged->fused) rep = staged->host_row_ids[rep];
    int64_t sum, cnt;
    std::memcpy(&sum, entry + layout.slot_offset(0), 8);
    std::memcpy(&cnt, entry + layout.slot_offset(1), 8);
    run.groups[{KeyValue(in, 0, rep), KeyValue(in, 1, rep)}] = {sum, cnt};
  }
  return run;
}

class AdversarialHashTest : public ::testing::Test {
 protected:
  gpusim::HostSpec host_;
  gpusim::DeviceSpec spec_;
  gpusim::SimDevice d0_{0, spec_.WithMemory(32ULL << 20), host_, 2};
  gpusim::SimDevice d1_{1, spec_.WithMemory(32ULL << 20), host_, 2};
  // One launcher worker: no lock is ever contended, so lock spins are
  // exactly the acquisitions.
  gpusim::SimDevice serial_{2, spec_.WithMemory(32ULL << 20), host_, 1};
  sched::GpuScheduler scheduler_{{&d0_, &d1_}};
  gpusim::PinnedHostPool pinned_{128ULL << 20};
  runtime::ThreadPool pool_{2};
};

TEST_F(AdversarialHashTest, EveryKernelAndStagingModeKeepsProbesBounded) {
  // 256 groups fit kernel 2's shared table under the moderator's fill
  // bound, so its shared probes never walk a full table.
  auto t = MakeTable(40000, 256, /*wide=*/false);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->wide_key());
  const GroupMap expected = CpuGroups(plan.value(), &pool_);
  ASSERT_EQ(expected.size(), 256u);

  for (const GroupByKernelKind kind :
       {GroupByKernelKind::kRegular, GroupByKernelKind::kSharedMem,
        GroupByKernelKind::kRowLock}) {
    for (const StageMode mode : {StageMode::kSoA, StageMode::kFusedRecords}) {
      SCOPED_TRACE(std::string(gpusim::GroupByKernelKindName(kind)) +
                   (mode == StageMode::kSoA ? " soa" : " fused"));
      const ForcedRun run =
          RunForced(&d0_, &pinned_, &pool_, plan.value(), kind, mode);
      EXPECT_EQ(run.rows, 40000u);
      EXPECT_EQ(run.groups, expected);
      EXPECT_GE(run.work.probes, run.rows);
      EXPECT_LE(ProbesPerRow(run.work, run.rows), kMaxProbesPerRow);
    }
  }
}

TEST_F(AdversarialHashTest, DriverFanOutsKeepProbesBounded) {
  auto t = MakeTable(60000, 4096, /*wide=*/false);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  const GroupMap expected = CpuGroups(plan.value(), &pool_);
  ASSERT_EQ(expected.size(), 4096u);
  std::vector<uint32_t> selection(t->num_rows());
  for (uint32_t i = 0; i < selection.size(); ++i) selection[i] = i;

  for (const Fanout fanout :
       {Fanout::kOnePartition, Fanout::kHashPartitioned}) {
    for (const bool fusion : {false, true}) {
      SCOPED_TRACE(std::string(fanout == Fanout::kOnePartition ? "one"
                                                               : "hash") +
                   (fusion ? " fused" : " soa"));
      PartitionedOptions opts;
      opts.gpu.allow_fusion = fusion;
      opts.gpu.estimated_rows = selection.size();
      opts.gpu.estimated_groups = expected.size();
      opts.cpu_split_fraction = 0.0;  // every partition on a device
      PartitionedStats stats;
      auto out = PartitionedGroupBy::Execute(plan.value(), &scheduler_,
                                             &pinned_, &pool_, &selection,
                                             fanout, opts, &stats);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      auto table = runtime::MaterializeGroups(plan.value(), *out);
      ASSERT_TRUE(table.ok());
      EXPECT_EQ(DriverGroups(**table), expected);
      if (fanout == Fanout::kHashPartitioned) {
        EXPECT_GT(stats.num_partitions, 1u);
      }
      KernelWork work;
      uint64_t rows = 0;
      for (const PartitionChunkStats& c : stats.chunks) {
        ASSERT_TRUE(c.on_gpu);
        if (!fusion) {
          EXPECT_FALSE(c.gpu.fused);
        }
        work += c.gpu.work;
        rows += c.gpu.rows_staged;
      }
      EXPECT_EQ(rows, selection.size());
      EXPECT_GE(work.probes, rows);
      EXPECT_LE(ProbesPerRow(work, rows), kMaxProbesPerRow);
    }
  }
}

TEST_F(AdversarialHashTest, WideKeyCountsLockSpinsAndProbes) {
  auto t = MakeTable(20000, 1024, /*wide=*/true);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->wide_key());
  const GroupMap expected = CpuGroups(plan.value(), &pool_);
  ASSERT_EQ(expected.size(), 1024u);

  // Kernel 1 takes the entry lock once per probe; kernel 3 adds one row
  // lock per row. Uncontended, each acquisition is one spin.
  const ForcedRun k1 = RunForced(&serial_, &pinned_, &pool_, plan.value(),
                                 GroupByKernelKind::kRegular, StageMode::kSoA);
  EXPECT_EQ(k1.groups, expected);
  EXPECT_GE(k1.work.probes, k1.rows);
  EXPECT_LE(ProbesPerRow(k1.work, k1.rows), kMaxProbesPerRow);
  EXPECT_EQ(k1.work.lock_spins, k1.work.probes);
  EXPECT_EQ(k1.work.cas_failures, 0u);

  const ForcedRun k3 = RunForced(&serial_, &pinned_, &pool_, plan.value(),
                                 GroupByKernelKind::kRowLock, StageMode::kSoA);
  EXPECT_EQ(k3.groups, expected);
  EXPECT_LE(ProbesPerRow(k3.work, k3.rows), kMaxProbesPerRow);
  EXPECT_EQ(k3.work.lock_spins, k3.work.probes + k3.rows);

  // Concurrent blocks may contend, which only adds spins.
  const ForcedRun par = RunForced(&d0_, &pinned_, &pool_, plan.value(),
                                  GroupByKernelKind::kRegular,
                                  StageMode::kSoA);
  EXPECT_EQ(par.groups, expected);
  EXPECT_LE(ProbesPerRow(par.work, par.rows), kMaxProbesPerRow);
  EXPECT_GE(par.work.lock_spins, par.work.probes);
}

}  // namespace
}  // namespace blusim::groupby
