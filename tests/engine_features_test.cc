// Tests for engine-level features not covered by the workload e2e suite:
// projection, limit, order-by semantics, error handling, monitoring, and
// MaterializeRows.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "gpusim/perf_monitor.h"

namespace blusim::core {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;

std::shared_ptr<Table> MakeSales(int rows) {
  Schema schema;
  schema.AddField({"region", DataType::kInt32, false});
  schema.AddField({"amount", DataType::kFloat64, false});
  schema.AddField({"qty", DataType::kInt64, false});
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < rows; ++i) {
    t->column(0).AppendInt32(i % 16);
    t->column(1).AppendDouble((i * 37 % 1000) * 0.25);
    t->column(2).AppendInt64(i % 5);
  }
  return t;
}

EngineConfig SmallConfig() {
  EngineConfig config;
  config.cpu_threads = 2;
  config.device_spec = config.device_spec.WithMemory(32ULL << 20);
  config.thresholds.t1_min_rows = 1u << 30;  // keep everything on CPU here
  return config;
}

class EngineFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(SmallConfig());
    ASSERT_TRUE(engine_->RegisterTable("sales", MakeSales(10000)).ok());
  }
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineFeaturesTest, DuplicateRegistrationRejected) {
  EXPECT_EQ(engine_->RegisterTable("sales", MakeSales(1)).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineFeaturesTest, UnknownTableIsNotFound) {
  QuerySpec q;
  q.fact_table = "nope";
  EXPECT_EQ(engine_->Execute(q).status().code(), StatusCode::kNotFound);
}

TEST_F(EngineFeaturesTest, ProjectionSelectsColumns) {
  QuerySpec q;
  q.fact_table = "sales";
  q.projection = {2, 0};
  q.limit = 10;
  auto r = engine_->Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table->num_columns(), 2u);
  EXPECT_EQ(r->table->schema().field(0).name, "qty");
  EXPECT_EQ(r->table->schema().field(1).name, "region");
  EXPECT_EQ(r->table->num_rows(), 10u);
}

TEST_F(EngineFeaturesTest, LimitTruncatesAfterSort) {
  QuerySpec q;
  q.fact_table = "sales";
  q.projection = {1};
  q.order_by = {{0, false}};  // amount desc
  q.limit = 5;
  auto r = engine_->Execute(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->table->num_rows(), 5u);
  const auto& amounts = r->table->column(0).float64_data();
  for (size_t i = 1; i < amounts.size(); ++i) {
    EXPECT_GE(amounts[i - 1], amounts[i]);
  }
  // The global maximum must be first.
  EXPECT_DOUBLE_EQ(amounts[0], 999 * 0.25);
}

// LIMIT keeps only the head of the sorted permutation before any row is
// copied; the sort is still charged for every row it ordered. Both ORDER BY
// branches (an aggregated result and projected fact rows) return the head
// of the unlimited query's rows, at the same simulated cost.
TEST_F(EngineFeaturesTest, LimitBeforeMaterializationKeepsRowsAndCharge) {
  QuerySpec grouped;
  grouped.fact_table = "sales";
  runtime::GroupBySpec g;
  g.key_columns = {0};
  g.aggregates = {{runtime::AggFn::kSum, 1, "revenue"}};
  grouped.groupby = g;
  grouped.order_by = {{1, false}};
  QuerySpec rows;
  rows.fact_table = "sales";
  rows.projection = {1, 2};
  rows.order_by = {{0, false}, {1, true}};
  for (const QuerySpec& base : {grouped, rows}) {
    QuerySpec limited = base;
    limited.limit = 7;
    auto all = engine_->Execute(base);
    auto head = engine_->Execute(limited);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ASSERT_TRUE(head.ok()) << head.status().ToString();
    ASSERT_GT(all->table->num_rows(), 7u);
    ASSERT_EQ(head->table->num_rows(), 7u);
    ASSERT_EQ(head->table->num_columns(), all->table->num_columns());
    for (size_t c = 0; c < all->table->num_columns(); ++c) {
      for (size_t r = 0; r < 7; ++r) {
        EXPECT_EQ(head->table->column(c).GetDouble(r),
                  all->table->column(c).GetDouble(r))
            << "column " << c << " row " << r;
      }
    }
    EXPECT_EQ(head->profile.total_elapsed, all->profile.total_elapsed);
    EXPECT_EQ(head->profile.result_rows, 7u);
  }
}

TEST_F(EngineFeaturesTest, GroupByResultOrderedByAggregate) {
  QuerySpec q;
  q.fact_table = "sales";
  runtime::GroupBySpec g;
  g.key_columns = {0};
  g.aggregates = {{runtime::AggFn::kSum, 2, "units"}};
  q.groupby = g;
  q.order_by = {{1, false}};  // by units desc
  auto r = engine_->Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table->num_rows(), 16u);
  const auto& units = r->table->column(1).int64_data();
  for (size_t i = 1; i < units.size(); ++i) {
    EXPECT_GE(units[i - 1], units[i]);
  }
}

TEST_F(EngineFeaturesTest, ProfilePhasesAndElapsedConsistent) {
  QuerySpec q;
  q.fact_table = "sales";
  runtime::GroupBySpec g;
  g.key_columns = {0};
  g.aggregates = {{runtime::AggFn::kCount, -1, "n"}};
  q.groupby = g;
  auto r = engine_->Execute(q);
  ASSERT_TRUE(r.ok());
  SimTime total = 0;
  for (const auto& phase : r->profile.phases) {
    total += phase.IdleElapsed(
        engine_->cost_model().HostParallelFactor(phase.dop));
  }
  EXPECT_EQ(total, r->profile.total_elapsed);
  EXPECT_EQ(r->profile.result_rows, 16u);
}

TEST_F(EngineFeaturesTest, StartupRegistrationCostScalesWithPool) {
  EngineConfig small = SmallConfig();
  small.pinned_pool_bytes = 16ULL << 20;
  EngineConfig big = SmallConfig();
  big.pinned_pool_bytes = 256ULL << 20;
  Engine e1(small), e2(big);
  EXPECT_LT(e1.startup_registration_time(),
            e2.startup_registration_time());
  // GPU-off engines have no devices, hence no registration cost.
  EngineConfig off = SmallConfig();
  off.gpu_enabled = false;
  Engine e3(off);
  EXPECT_EQ(e3.startup_registration_time(), 0);
}

// --- The device group-by record ---
// Every device group-by runs through one driver and one recorder; these
// pin the (label, kind, overlapped) phase sequence and the annotations
// each outcome records.

using PhaseKey = std::tuple<std::string, PhaseRecord::Kind, bool>;
constexpr PhaseRecord::Kind kCpuPhase = PhaseRecord::Kind::kCpu;
constexpr PhaseRecord::Kind kGpuPhase = PhaseRecord::Kind::kGpu;

std::vector<PhaseKey> PhaseSequence(const QueryProfile& profile) {
  std::vector<PhaseKey> out;
  for (const PhaseRecord& p : profile.phases) {
    out.emplace_back(p.label, p.kind, p.overlapped);
  }
  return out;
}

std::vector<std::string> AnnotationKeys(const QueryProfile& profile) {
  std::vector<std::string> out;
  for (const auto& kv : profile.trace.annotations) out.push_back(kv.first);
  return out;
}

std::string Annotation(const QueryProfile& profile, const std::string& key) {
  const std::string* v = profile.trace.FindAnnotation(key);
  return v != nullptr ? *v : "<unset>";
}

// Argument `key` of the trace span `span`.
std::string SpanArg(const QueryProfile& profile, const std::string& span,
                    const std::string& key) {
  for (const obs::TraceSpan& s : profile.trace.spans) {
    if (s.name != span) continue;
    for (const auto& [k, v] : s.args) {
      if (k == key) return v;
    }
  }
  return "<unset>";
}

// 100k fact rows over 2000 group keys (1000 of them pass f < 50), a unique
// id, a filter column and a payload; a 2000-row dimension keyed by the
// group key. Devices hold 8 MB: a 1000-group query fits easily, a group-by
// on the unique id over every row never does.
class GroupByRecordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema fs;
    fs.AddField({"k", DataType::kInt64, false});
    fs.AddField({"id", DataType::kInt64, false});
    fs.AddField({"f", DataType::kInt32, false});
    fs.AddField({"v", DataType::kInt64, false});
    auto fact = std::make_shared<Table>(fs);
    for (int i = 0; i < 100000; ++i) {
      fact->column(0).AppendInt64((i * 7919) % 2000);
      fact->column(1).AppendInt64(i);
      fact->column(2).AppendInt32(i % 100);
      fact->column(3).AppendInt64(i % 13);
    }
    Schema ds;
    ds.AddField({"pk", DataType::kInt64, false});
    ds.AddField({"attr", DataType::kInt32, false});
    auto dim = std::make_shared<Table>(ds);
    for (int i = 0; i < 2000; ++i) {
      dim->column(0).AppendInt64(i);
      dim->column(1).AppendInt32(i % 10);
    }
    EngineConfig config;
    config.cpu_threads = 2;
    config.device_spec = config.device_spec.WithMemory(8ULL << 20);
    config.thresholds.t1_min_rows = 1000;
    engine_ = std::make_unique<Engine>(config);
    ASSERT_TRUE(engine_->RegisterTable("facts", fact).ok());
    ASSERT_TRUE(engine_->RegisterTable("dim", dim).ok());
  }

  // SUM(v), COUNT(*) grouped by `key_column`, over the rows with f < 50.
  static QuerySpec GroupBy(int key_column) {
    QuerySpec q;
    q.fact_table = "facts";
    runtime::Predicate half;
    half.column = 2;
    half.op = runtime::CmpOp::kLt;
    half.lo = 50;
    q.fact_filters = {half};
    runtime::GroupBySpec g;
    g.key_columns = {key_column};
    g.aggregates = {{runtime::AggFn::kSum, 3, "s"},
                    {runtime::AggFn::kCount, -1, "n"}};
    q.groupby = g;
    return q;
  }

  uint64_t CounterValue(const std::string& name) const {
    uint64_t total = 0;
    for (const obs::MetricSample& s : engine_->metrics().Snapshot()) {
      if (s.name == name) total += static_cast<uint64_t>(s.value);
    }
    return total;
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(GroupByRecordTest, DeferredFusedSingleDeviceRun) {
  auto r = engine_->Execute(GroupBy(0));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryProfile& p = r->profile;
  EXPECT_EQ(p.groupby_path, ExecutionPath::kGpu);
  EXPECT_TRUE(p.gpu_used);
  EXPECT_FALSE(p.degraded);
  // The scan folded into the fused staging sweep: no scan phase.
  EXPECT_EQ(PhaseSequence(p),
            (std::vector<PhaseKey>{{"groupby-stage", kCpuPhase, false},
                                   {"groupby-kernel", kGpuPhase, false}}));
  EXPECT_EQ(AnnotationKeys(p),
            (std::vector<std::string>{
                "kmv_estimate", "kmv_wall_us", "groupby_path", "kernel",
                "fusion", "bytes_h2d", "bytes_d2h", "bytes_staged_avoided",
                "kernel_probes", "kernel_cas_failures", "kernel_lock_spins",
                "actual_groups"}));
  EXPECT_EQ(Annotation(p, "fusion"), "on");
  EXPECT_EQ(Annotation(p, "actual_groups"), "1000");
  EXPECT_EQ(r->table->num_rows(), 1000u);
  // The device job's four sub-spans, the kernel carrying its two clocks,
  // its retries and the work it counted.
  const std::string kernel = "kernel:" + Annotation(p, "kernel");
  for (const char* span : {"transfer-in", "hash-init", "transfer-out"}) {
    EXPECT_NE(p.trace.FindSpan(span), nullptr) << span;
  }
  const obs::TraceSpan* k = p.trace.FindSpan(kernel);
  ASSERT_NE(k, nullptr) << kernel;
  std::vector<std::string> arg_keys;
  for (const auto& [key, value] : k->args) arg_keys.push_back(key);
  EXPECT_EQ(arg_keys,
            (std::vector<std::string>{"sim_us", "wall_us", "retries",
                                      "probes", "cas_failures",
                                      "lock_spins"}));
  EXPECT_EQ(k->args[0].second, std::to_string(k->duration()));
  // Every group-by row was probed at least once, and the probes reached
  // the annotation and the kernel's counter.
  EXPECT_GE(std::stoull(k->args[3].second), 1000u);
  EXPECT_EQ(k->args[3].second, Annotation(p, "kernel_probes"));
  EXPECT_EQ(CounterValue("blusim_kernel_probes_total"),
            std::stoull(Annotation(p, "kernel_probes")));
  // The kernel phase carries the PCIe bytes the annotations report.
  const PhaseRecord& device = p.phases[1];
  EXPECT_EQ(device.bytes_moved,
            std::stoull(Annotation(p, "bytes_h2d")) +
                std::stoull(Annotation(p, "bytes_d2h")));
  EXPECT_GT(device.device_mem, 0u);
  EXPECT_EQ(CounterValue("blusim_moderator_kernel_total"), 1u);
}

TEST_F(GroupByRecordTest, JoinedSingleDeviceRun) {
  QuerySpec q = GroupBy(0);
  DimJoinSpec join;
  join.dim_table = "dim";
  join.fact_fk_column = 0;
  join.dim_pk_column = 0;
  runtime::Predicate low;
  low.column = 1;
  low.op = runtime::CmpOp::kLt;
  low.lo = 5;
  join.dim_filters = {low};
  q.joins = {join};
  auto r = engine_->Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryProfile& p = r->profile;
  EXPECT_EQ(p.groupby_path, ExecutionPath::kGpu);
  EXPECT_TRUE(p.gpu_used);
  EXPECT_EQ(PhaseSequence(p),
            (std::vector<PhaseKey>{{"scan", kCpuPhase, false},
                                   {"join-dim", kCpuPhase, false},
                                   {"groupby-stage", kCpuPhase, false},
                                   {"groupby-kernel", kGpuPhase, false}}));
  std::vector<std::string> keys = {"kmv_estimate", "kmv_wall_us",
                                   "groupby_path", "kernel",
                                   "fusion",       "bytes_h2d",
                                   "bytes_d2h"};
  if (Annotation(p, "fusion") == "on") keys.push_back("bytes_staged_avoided");
  for (const char* key :
       {"kernel_probes", "kernel_cas_failures", "kernel_lock_spins",
        "actual_groups"}) {
    keys.push_back(key);
  }
  EXPECT_EQ(AnnotationKeys(p), keys);
  EXPECT_EQ(Annotation(p, "actual_groups"), "500");
}

TEST_F(GroupByRecordTest, NeverFitsWaitsThenRunsTheCpuChain) {
  // One group per row over all 100k rows: inputs plus table outgrow every
  // 8 MB device, so the reservation waits out its polls and the query
  // degrades.
  QuerySpec q = GroupBy(1);
  q.fact_filters.clear();
  auto r = engine_->Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryProfile& p = r->profile;
  EXPECT_EQ(p.groupby_path, ExecutionPath::kCpu);
  EXPECT_FALSE(p.gpu_used);
  EXPECT_TRUE(p.degraded);
  EXPECT_EQ(PhaseSequence(p),
            (std::vector<PhaseKey>{{"reservation-wait", kCpuPhase, false},
                                   {"scan", kCpuPhase, false},
                                   {"groupby-cpu", kCpuPhase, false}}));
  EXPECT_EQ(AnnotationKeys(p),
            (std::vector<std::string>{"kmv_estimate", "kmv_wall_us",
                                      "groupby_path", "groupby_fallback",
                                      "actual_groups", "degraded"}));
  EXPECT_EQ(Annotation(p, "groupby_path"), "GPU");
  EXPECT_EQ(Annotation(p, "groupby_fallback"), "cpu");
  EXPECT_EQ(Annotation(p, "degraded"), "true");
  EXPECT_EQ(r->table->num_rows(), 100000u);
  EXPECT_EQ(CounterValue("blusim_router_groupby_fallbacks_total"), 1u);
  // One group per row: the chain partitions first, into the power of two
  // of 8192-row partitions that covers 100k rows.
  EXPECT_EQ(SpanArg(p, "groupby-cpu", "rows"), "100000");
  EXPECT_EQ(SpanArg(p, "groupby-cpu", "groups"), "100000");
  EXPECT_EQ(SpanArg(p, "groupby-cpu", "strategy"), "partition");
  EXPECT_EQ(SpanArg(p, "groupby-cpu", "partitions"), "16");
}

TEST_F(GroupByRecordTest, BudgetCapRunsTheCpuChainWithoutWaiting) {
  ExecOptions opts;
  opts.device_budget_bytes = 1 << 10;
  auto r = engine_->Execute(GroupBy(0), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryProfile& p = r->profile;
  EXPECT_EQ(p.groupby_path, ExecutionPath::kCpu);
  EXPECT_TRUE(p.degraded);
  EXPECT_EQ(PhaseSequence(p),
            (std::vector<PhaseKey>{{"scan", kCpuPhase, false},
                                   {"groupby-cpu", kCpuPhase, false}}));
  EXPECT_EQ(AnnotationKeys(p),
            (std::vector<std::string>{"kmv_estimate", "kmv_wall_us",
                                      "groupby_path", "groupby_fallback",
                                      "actual_groups", "degraded"}));
  EXPECT_EQ(Annotation(p, "groupby_fallback"), "budget");
  EXPECT_EQ(r->table->num_rows(), 1000u);
  EXPECT_EQ(SpanArg(p, "groupby-cpu", "rows"), "50000");
  EXPECT_EQ(SpanArg(p, "groupby-cpu", "groups"), "1000");
  EXPECT_EQ(SpanArg(p, "groupby-cpu", "strategy"), "local");
  EXPECT_EQ(SpanArg(p, "groupby-cpu", "partitions"), "1");
  EXPECT_EQ(CounterValue("blusim_router_budget_capped_total"), 1u);
  EXPECT_EQ(CounterValue("blusim_router_groupby_fallbacks_total"), 1u);
}

TEST_F(GroupByRecordTest, InstrumentsExistAtZeroFromConstruction) {
  size_t kernels = 0;
  for (const obs::MetricSample& s : engine_->metrics().Snapshot()) {
    if (s.name == "blusim_moderator_kernel_total") {
      ++kernels;
      EXPECT_EQ(s.value, 0);
    }
  }
  EXPECT_EQ(kernels, 6u);  // 3 kernels x fused or not
  EXPECT_EQ(CounterValue("blusim_queries_total"), 0u);
  EXPECT_EQ(CounterValue("blusim_bytes_h2d_total"), 0u);
}

TEST(MaterializeRowsTest, ReordersAndProjects) {
  auto t = MakeSales(10);
  std::vector<uint32_t> rows = {5, 1, 8};
  auto out = MaterializeRows(*t, rows, {0});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 3u);
  EXPECT_EQ((*out)->column(0).int32_data()[0], 5);
  EXPECT_EQ((*out)->column(0).int32_data()[1], 1);
  EXPECT_EQ((*out)->column(0).int32_data()[2], 8);
  EXPECT_FALSE(MaterializeRows(*t, rows, {99}).ok());
}

TEST(PerfMonitorTest, AggregatesEventsAndKernels) {
  gpusim::PerfMonitor mon;
  mon.Record(gpusim::GpuEvent::kTransferToDevice, 100, 4096);
  mon.Record(gpusim::GpuEvent::kTransferFromDevice, 50, 2048);
  mon.RecordKernel("groupby_regular", 500);
  mon.RecordKernel("groupby_regular", 300);
  mon.RecordKernel("radix_sort", 200);
  mon.SampleMemory(10, 1 << 20);
  mon.SampleMemory(20, 2 << 20);

  EXPECT_EQ(mon.total_transfer_time(), 150);
  EXPECT_EQ(mon.total_kernel_time(), 1000);
  auto stats = mon.kernel_stats();
  EXPECT_EQ(stats["groupby_regular"].count, 2u);
  EXPECT_EQ(stats["groupby_regular"].total_time, 800);
  EXPECT_EQ(stats["radix_sort"].count, 1u);
  auto samples = mon.memory_samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[1].bytes_in_use, 2u << 20);
  const auto transfer =
      mon.stats(gpusim::GpuEvent::kTransferToDevice);
  EXPECT_EQ(transfer.count, 1u);
  EXPECT_EQ(transfer.total_bytes, 4096u);

  mon.Reset();
  EXPECT_EQ(mon.total_kernel_time(), 0);
  EXPECT_TRUE(mon.memory_samples().empty());
}

}  // namespace
}  // namespace blusim::core
