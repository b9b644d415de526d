// Tests for the query-lifecycle trace builder and the three exporters
// (Chrome trace-event JSON, Prometheus text 0.0.4, JSON snapshot).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export_chrome.h"
#include "obs/export_json.h"
#include "obs/export_prometheus.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace blusim::obs {
namespace {

// Minimal structural JSON check: braces/brackets balance outside string
// literals and nothing trails the root value. Catches the usual exporter
// bugs (missing comma-quote handling, unescaped quotes in span names)
// without a full parser.
bool JsonWellFormed(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool root_closed = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (c == '\n') {
        return false;  // raw newline inside a string literal
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[':
        if (root_closed) return false;
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        if (depth == 0) root_closed = true;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string && root_closed;
}

QueryTrace MakeSampleTrace() {
  TraceBuilder b("q1 \"quoted\"");
  b.AddPhase("scan", kCatCpu, 100);
  b.AddPhase("transfer-in", kCatTransfer, 50, 0);
  b.AddPhase("kernel:groupby_sharedmem", kCatKernel, 200, 0,
             {{"retries", "1"}});
  // Concurrent worker lane: explicit timestamps, separate track.
  TraceSpan worker;
  worker.name = "sort-job-cpu";
  worker.category = kCatCpu;
  worker.begin = 100;
  worker.end = 180;
  worker.track = 2;
  b.AddSpanAt(worker);
  b.Annotate("groupby_path", "GPU");
  b.Annotate("kmv_estimate", "1234");
  return b.Finish();
}

TEST(TraceBuilderTest, SequentialPhasesAreContiguous) {
  TraceBuilder b("q");
  EXPECT_EQ(b.now(), 0);
  b.AddPhase("a", kCatCpu, 10);
  EXPECT_EQ(b.now(), 10);
  b.Advance(5);
  b.AddPhase("b", kCatGpu, 20, 1);
  EXPECT_EQ(b.now(), 35);

  QueryTrace t = b.Finish();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].begin, 0);
  EXPECT_EQ(t.spans[0].end, 10);
  EXPECT_EQ(t.spans[0].device_id, -1);
  EXPECT_EQ(t.spans[1].begin, 15);
  EXPECT_EQ(t.spans[1].end, 35);
  EXPECT_EQ(t.spans[1].device_id, 1);
  EXPECT_EQ(t.spans[1].duration(), 20);
}

TEST(TraceBuilderTest, AddSpanAtDoesNotMoveCursor) {
  TraceBuilder b("q");
  b.AddPhase("host", kCatCpu, 40);
  TraceSpan s;
  s.name = "worker";
  s.category = kCatCpu;
  s.begin = 5;
  s.end = 25;
  s.track = 3;
  b.AddSpanAt(s);
  EXPECT_EQ(b.now(), 40);

  QueryTrace t = b.Finish();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[1].track, 3);
  EXPECT_EQ(t.spans[1].begin, 5);
}

TEST(TraceBuilderTest, AnnotationsAndLookup) {
  QueryTrace t = MakeSampleTrace();
  ASSERT_NE(t.FindAnnotation("groupby_path"), nullptr);
  EXPECT_EQ(*t.FindAnnotation("groupby_path"), "GPU");
  EXPECT_EQ(t.FindAnnotation("missing"), nullptr);
  ASSERT_NE(t.FindSpan("scan"), nullptr);
  EXPECT_EQ(t.FindSpan("scan")->duration(), 100);
  EXPECT_EQ(t.FindSpan("nope"), nullptr);
}

TEST(ChromeExportTest, WellFormedAndComplete) {
  QueryTrace t = MakeSampleTrace();
  const std::string json = RenderChromeTrace({&t});

  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Host and GPU process rows.
  EXPECT_NE(json.find("\"args\":{\"name\":\"host\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"gpu0\"}"), std::string::npos);
  // Kernel span lands on the device process (pid = device_id + 1).
  EXPECT_NE(json.find("\"name\":\"kernel:groupby_sharedmem\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The quote in the query name is escaped, never raw.
  EXPECT_NE(json.find("q1 \\\"quoted\\\""), std::string::npos);
  // Annotations ride the umbrella span's args.
  EXPECT_NE(json.find("\"groupby_path\":\"GPU\""), std::string::npos);
  // Worker lane got its own thread label.
  EXPECT_NE(json.find("/w2"), std::string::npos);
}

TEST(ChromeExportTest, EmptyTraceListStillParses) {
  EXPECT_TRUE(JsonWellFormed(RenderChromeTrace(
      std::vector<const QueryTrace*>{})));
}

TEST(ChromeExportTest, JsonEscapeCoversControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(PrometheusExportTest, FamiliesTypesAndEscaping) {
  MetricsRegistry registry;
  registry
      .GetCounter("blusim_demo_total", {{"path", "g\"p\\u\n"}},
                  "demo counter")
      ->Add(3);
  registry.GetGauge("blusim_demo_bytes", {}, "demo gauge")->Set(-17);

  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("# HELP blusim_demo_total demo counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE blusim_demo_total counter\n"),
            std::string::npos);
  // Label value escaped per the 0.0.4 spec: backslash, quote, newline.
  EXPECT_NE(text.find("blusim_demo_total{path=\"g\\\"p\\\\u\\n\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE blusim_demo_bytes gauge\n"), std::string::npos);
  EXPECT_NE(text.find("blusim_demo_bytes -17\n"), std::string::npos);
}

TEST(PrometheusExportTest, HistogramExpansionIsCumulative) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("blusim_lat_us", {}, "latency");
  h->Observe(1);  // bucket le=1
  h->Observe(2);  // bucket le=2
  h->Observe(1ULL << 30);  // +Inf

  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE blusim_lat_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("blusim_lat_us_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("blusim_lat_us_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  // All finite buckets carry the cumulative count from then on.
  EXPECT_NE(text.find("blusim_lat_us_bucket{le=\"524288\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("blusim_lat_us_bucket{le=\"268435456\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("blusim_lat_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("blusim_lat_us_count 3\n"), std::string::npos);
  const std::string sum =
      "blusim_lat_us_sum " + std::to_string(3 + (1ULL << 30)) + "\n";
  EXPECT_NE(text.find(sum), std::string::npos);
}

TEST(PrometheusExportTest, EscapeHelper) {
  EXPECT_EQ(PrometheusEscape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(JsonExportTest, SnapshotWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("c_total", {{"k", "v\"q"}}, "c help")->Add(5);
  registry.GetHistogram("h_us")->Observe(9);

  const std::string json = RenderMetricsJson(registry);
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"h_us\""), std::string::npos);
}

}  // namespace
}  // namespace blusim::obs
