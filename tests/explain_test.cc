#include "core/explain.h"

#include <gtest/gtest.h>

#include "core/engine.h"

namespace blusim::core {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;
using runtime::AggFn;

std::shared_ptr<Table> MakeFact() {
  Schema schema;
  schema.AddField({"date_sk", DataType::kInt32, false});
  schema.AddField({"item_sk", DataType::kInt32, false});
  schema.AddField({"amount", DataType::kFloat64, false});
  schema.AddField({"tag", DataType::kString, false});
  auto t = std::make_shared<Table>(schema);
  t->column(0).AppendInt32(1);
  t->column(1).AppendInt32(1);
  t->column(2).AppendDouble(1.0);
  t->column(3).AppendString("x");
  return t;
}

TEST(DescribeQueryTest, FullGroupByQuery) {
  auto fact = MakeFact();
  QuerySpec q;
  q.name = "demo";
  q.fact_table = "sales";
  runtime::Predicate p;
  p.column = 0;
  p.op = runtime::CmpOp::kBetween;
  p.lo = 10;
  p.hi = 20;
  q.fact_filters.push_back(p);
  DimJoinSpec j;
  j.dim_table = "item";
  j.fact_fk_column = 1;
  j.dim_pk_column = 0;
  q.joins.push_back(j);
  runtime::GroupBySpec g;
  g.key_columns = {1};
  g.aggregates = {{AggFn::kSum, 2, "revenue"}, {AggFn::kCount, -1, ""}};
  q.groupby = g;
  q.order_by = {{1, false}};
  q.limit = 10;

  const std::string sql = DescribeQuery(q, *fact);
  EXPECT_NE(sql.find("SELECT item_sk, SUM(amount) AS revenue, COUNT(*)"),
            std::string::npos)
      << sql;
  EXPECT_NE(sql.find("FROM sales"), std::string::npos);
  EXPECT_NE(sql.find("JOIN item ON item_sk = item.pk"), std::string::npos);
  EXPECT_NE(sql.find("WHERE date_sk BETWEEN 10 AND 20"), std::string::npos);
  EXPECT_NE(sql.find("GROUP BY item_sk"), std::string::npos);
  EXPECT_NE(sql.find("ORDER BY #1 DESC"), std::string::npos);
  EXPECT_NE(sql.find("LIMIT 10"), std::string::npos);
}

TEST(DescribeQueryTest, ProjectionAndStringPredicate) {
  auto fact = MakeFact();
  QuerySpec q;
  q.fact_table = "sales";
  q.projection = {3, 2};
  runtime::Predicate p;
  p.column = 3;
  p.op = runtime::CmpOp::kEq;
  p.str = "hot";
  q.fact_filters.push_back(p);
  const std::string sql = DescribeQuery(q, *fact);
  EXPECT_NE(sql.find("SELECT tag, amount"), std::string::npos) << sql;
  EXPECT_NE(sql.find("WHERE tag = 'hot'"), std::string::npos);
}

TEST(RenderChainTest, CpuChainShowsFigure1Stages) {
  auto fact = MakeFact();
  runtime::GroupBySpec g;
  g.key_columns = {0, 1};
  g.aggregates = {{AggFn::kSum, 2, "s"}, {AggFn::kCount, -1, "n"}};
  auto plan = runtime::GroupByPlan::Make(*fact, g);
  ASSERT_TRUE(plan.ok());
  const std::string chain =
      RenderGroupByChain(plan.value(), ExecutionPath::kCpu);
  EXPECT_NE(chain.find("LCOG"), std::string::npos) << chain;
  EXPECT_NE(chain.find("CCAT(64-bit key)"), std::string::npos);
  EXPECT_NE(chain.find("HASH(mod)"), std::string::npos);
  EXPECT_NE(chain.find("LGHT"), std::string::npos);
  EXPECT_NE(chain.find("SUM"), std::string::npos);
  EXPECT_NE(chain.find("CNT"), std::string::npos);
  EXPECT_NE(chain.find("merge to global hash table"), std::string::npos);
  EXPECT_EQ(chain.find("MEMCPY"), std::string::npos);
}

TEST(RenderChainTest, GpuChainShowsFigure2Stages) {
  auto fact = MakeFact();
  runtime::GroupBySpec g;
  g.key_columns = {0};
  g.aggregates = {{AggFn::kMin, 2, "m"}};
  auto plan = runtime::GroupByPlan::Make(*fact, g);
  ASSERT_TRUE(plan.ok());
  const std::string chain =
      RenderGroupByChain(plan.value(), ExecutionPath::kGpu);
  EXPECT_NE(chain.find("KMV"), std::string::npos) << chain;
  EXPECT_NE(chain.find("MEMCPY(pinned)"), std::string::npos);
  EXPECT_NE(chain.find("GPU runtime"), std::string::npos);
  EXPECT_NE(chain.find("moderator"), std::string::npos);
  EXPECT_EQ(chain.find("LGHT"), std::string::npos);  // removed in figure 2
}

TEST(RenderChainTest, PartitionedChainShowsMerge) {
  auto fact = MakeFact();
  runtime::GroupBySpec g;
  g.key_columns = {0};
  g.aggregates = {{AggFn::kSum, 2, "s"}};
  auto plan = runtime::GroupByPlan::Make(*fact, g);
  const std::string chain =
      RenderGroupByChain(plan.value(), ExecutionPath::kPartitioned);
  EXPECT_NE(chain.find("hash-partition"), std::string::npos) << chain;
  EXPECT_NE(chain.find("CPU lane"), std::string::npos) << chain;
  EXPECT_NE(chain.find("concat merge"), std::string::npos) << chain;
}

TEST(ExplainAnalyzeTest, RendersPhasesAndAnnotations) {
  auto fact = MakeFact();
  QuerySpec q;
  q.name = "demo";
  q.fact_table = "sales";

  QueryProfile profile;
  profile.query_name = "demo";
  profile.groupby_path = ExecutionPath::kGpu;
  profile.gpu_used = true;
  PhaseRecord scan;
  scan.label = "scan";
  scan.kind = PhaseRecord::Kind::kCpu;
  scan.dop = 4;
  scan.elapsed = 1500;
  scan.wall_us = 2250;
  profile.phases.push_back(scan);
  PhaseRecord kernel;
  kernel.label = "gpu-groupby";
  kernel.kind = PhaseRecord::Kind::kGpu;
  kernel.device_id = 1;
  kernel.elapsed = 500;
  kernel.wall_us = 750;
  kernel.kernel_probes = 300;
  kernel.kernel_rows = 200;
  profile.phases.push_back(kernel);
  profile.total_elapsed = 2000;
  profile.trace.annotations = {{"kernel", "groupby_regular"}};

  const std::string out = ExplainAnalyze(q, *fact, profile);
  EXPECT_NE(out.find("EXPLAIN ANALYZE (demo)"), std::string::npos) << out;
  EXPECT_NE(out.find("gpu used: yes"), std::string::npos);
  EXPECT_NE(out.find("scan"), std::string::npos);
  EXPECT_NE(out.find("1.500"), std::string::npos);
  EXPECT_NE(out.find("gpu-groupby"), std::string::npos);
  EXPECT_NE(out.find("0.500"), std::string::npos);
  // The total row is the sum of the per-node times, on each clock.
  EXPECT_NE(out.find("2.000"), std::string::npos);
  EXPECT_NE(out.find("3.000"), std::string::npos);
  // Both clocks are named; the kernel row carries its probes per row.
  EXPECT_NE(out.find("sim ms"), std::string::npos) << out;
  EXPECT_NE(out.find("wall ms"), std::string::npos) << out;
  EXPECT_NE(out.find("2.250"), std::string::npos) << out;
  EXPECT_NE(out.find("probes/row"), std::string::npos) << out;
  EXPECT_NE(out.find("1.50\n"), std::string::npos) << out;
  EXPECT_NE(out.find("annotations: kernel=groupby_regular"),
            std::string::npos);
}

TEST(ExplainAnalyzeTest, MeasuredNodeTimesSumToProfileTotal) {
  // End to end: execute a real query and check the invariant the explain
  // output relies on -- per-node elapsed sums to total_elapsed.
  columnar::Schema schema;
  schema.AddField({"k", DataType::kInt32, false});
  schema.AddField({"v", DataType::kInt64, false});
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < 20000; ++i) {
    t->column(0).AppendInt32(i % 32);
    t->column(1).AppendInt64(i);
  }
  EngineConfig config;
  config.cpu_threads = 2;
  config.device_spec = config.device_spec.WithMemory(32ULL << 20);
  Engine engine(config);
  ASSERT_TRUE(engine.RegisterTable("sales", t).ok());

  QuerySpec q;
  q.name = "sum-check";
  q.fact_table = "sales";
  runtime::GroupBySpec g;
  g.key_columns = {0};
  g.aggregates = {{AggFn::kSum, 1, "s"}};
  q.groupby = g;
  q.order_by = {{1, false}};
  auto r = engine.Execute(q);
  ASSERT_TRUE(r.ok());

  SimTime sum = 0;
  for (const auto& phase : r->profile.phases) sum += phase.elapsed;
  EXPECT_EQ(sum, r->profile.total_elapsed);
  EXPECT_GT(sum, 0);

  const std::string out = ExplainAnalyze(q, *t, r->profile);
  EXPECT_NE(out.find("total"), std::string::npos) << out;
}

}  // namespace
}  // namespace blusim::core
