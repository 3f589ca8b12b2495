// QueryProfile unit tests: the q-error definition, the figures the
// renderings derive from the operator and source records (q-error,
// compute/network split, rows/s), the session phases of a span tree, and
// the shape/stability of the text and JSON renderings.

#include "obs/profile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/string_util.h"

namespace lakefed::obs {
namespace {

TEST(QErrorTest, ExactEstimateIsOne) {
  EXPECT_DOUBLE_EQ(QError(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(QError(1, 1), 1.0);
}

TEST(QErrorTest, SymmetricOverAndUnder) {
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);   // underestimate
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);   // overestimate
  EXPECT_DOUBLE_EQ(QError(25, 100), QError(100, 25));
}

TEST(QErrorTest, ZeroesClampToOne) {
  // Both sides clamp to >= 1, so empty operators never divide by zero.
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 5), 5.0);
  EXPECT_DOUBLE_EQ(QError(5, 0), 5.0);
}

TEST(QErrorTest, NoEstimateIsSentinel) {
  EXPECT_DOUBLE_EQ(QError(-1, 100), -1.0);
  EXPECT_DOUBLE_EQ(QError(-0.5, 0), -1.0);
}

QueryProfile TwoOperatorProfile() {
  QueryProfile p;
  OperatorRuntime leaf;
  leaf.label = "Service[src1]";
  leaf.source_id = "src1";
  leaf.rows = 200;
  leaf.estimated_rows = 100;
  leaf.wall_ms = 10;
  leaf.push_waits = 3;
  leaf.push_wait_ms = 4;
  leaf.depth_samples = 2;
  leaf.depth_sum = 6;
  leaf.peak_depth = 5;
  OperatorRuntime project;
  project.label = "Project ?x";
  project.rows = 50;
  project.wall_ms = 8;
  project.pop_waits = 1;
  project.pop_wait_ms = 2;
  p.operators = {leaf, project};
  SourceTraffic traffic;
  traffic.rows = 200;
  traffic.messages = 200;
  traffic.retries = 1;
  traffic.delay_ms = 3;
  p.sources.emplace("src1", traffic);
  p.total_ms = 500;
  p.first_answer_ms = 100;
  p.answer_rows = 50;
  return p;
}

TEST(QueryProfileTest, JoinsEstimatesRuntimeAndTraffic) {
  QueryProfile p = TwoOperatorProfile();
  // Leaf: q-error 2 (underestimate); compute = wall - push_wait - network,
  // network charged from the operator's source traffic; rows/s from wall.
  // Project: no estimate, so q-error -1; no source, so no network share.
  EXPECT_EQ(
      p.ToJson(),
      "{\"status\":\"ok\",\"total_ms\":500,\"first_answer_ms\":100,"
      "\"rows\":50,\"max_q_error\":2,\"phases\":[],\"operators\":["
      "{\"label\":\"Service[src1]\",\"source\":\"src1\","
      "\"estimated_rows\":100,\"actual_rows\":200,\"q_error\":2,"
      "\"underestimate\":true,\"wall_ms\":10,\"compute_ms\":3,"
      "\"push_wait_ms\":4,\"pop_wait_ms\":0,\"push_waits\":3,"
      "\"pop_waits\":0,\"network_ms\":3,\"rows_per_sec\":20000,"
      "\"peak_queue_depth\":5,\"avg_queue_depth\":3},"
      "{\"label\":\"Project ?x\",\"source\":\"\",\"estimated_rows\":-1,"
      "\"actual_rows\":50,\"q_error\":-1,\"underestimate\":false,"
      "\"wall_ms\":8,\"compute_ms\":8,\"push_wait_ms\":0,"
      "\"pop_wait_ms\":2,\"push_waits\":0,\"pop_waits\":1,"
      "\"network_ms\":0,\"rows_per_sec\":6250,\"peak_queue_depth\":0,"
      "\"avg_queue_depth\":0}],\"sources\":[{\"id\":\"src1\","
      "\"rows\":200,\"messages\":200,\"delay_ms\":3,\"retries\":1}]}");
  EXPECT_DOUBLE_EQ(p.MaxQError(), 2.0);
  EXPECT_DOUBLE_EQ(p.operators[0].avg_depth(), 3.0);
}

TEST(QueryProfileTest, ComputeClampsAtZero) {
  QueryProfile p = TwoOperatorProfile();
  p.operators[0].push_wait_ms = 100;  // waits exceed wall time
  EXPECT_TRUE(Contains(p.ToJson(), "\"compute_ms\":0,")) << p.ToJson();
}

TEST(QueryProfileTest, NoRuntimeLeavesWallUnmeasured) {
  QueryProfile p = TwoOperatorProfile();
  for (OperatorRuntime& op : p.operators) {  // collect_metrics off
    op.wall_ms = -1;
    op.push_waits = 0;
    op.push_wait_ms = 0;
    op.pop_waits = 0;
    op.pop_wait_ms = 0;
  }
  std::string json = p.ToJson();
  EXPECT_TRUE(Contains(json, "\"wall_ms\":-1,\"compute_ms\":-1,")) << json;
  EXPECT_FALSE(Contains(json, "\"wall_ms\":10")) << json;
  // q-errors still computed: they need only estimates and row counts.
  EXPECT_TRUE(Contains(json, "\"q_error\":2,")) << json;
  EXPECT_TRUE(Contains(p.ToText(), "2.00v")) << p.ToText();
}

TEST(QueryProfileTest, PhasesAreRootChildren) {
  SpanRecord root{1, 0, "session", 0, 10};
  SpanRecord parse{2, 1, "parse", 0, 1};
  SpanRecord execute{3, 1, "execute", 1, 9};
  SpanRecord nested{4, 3, "join", 2, 8};  // grandchild: not a phase
  std::vector<QueryProfile::Phase> phases =
      SessionPhases({root, parse, execute, nested});
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "parse");
  EXPECT_DOUBLE_EQ(phases[0].ms, 1.0);
  EXPECT_EQ(phases[1].name, "execute");
  EXPECT_DOUBLE_EQ(phases[1].ms, 8.0);
}

TEST(QueryProfileTest, JsonHasStableShape) {
  QueryProfile p = TwoOperatorProfile();
  std::string json = p.ToJson();
  // Fixed key order at the top level.
  const char* keys[] = {"\"status\"",          "\"total_ms\"",
                        "\"first_answer_ms\"", "\"rows\"",
                        "\"max_q_error\"",     "\"phases\"",
                        "\"operators\"",       "\"sources\""};
  size_t pos = 0;
  for (const char* key : keys) {
    size_t next = json.find(key, pos);
    ASSERT_NE(next, std::string::npos) << key << " missing in " << json;
    pos = next;
  }
  EXPECT_TRUE(Contains(json, "\"q_error\":2")) << json;
  EXPECT_TRUE(Contains(json, "\"underestimate\":true")) << json;
  // Absent measurements are -1, never omitted keys.
  EXPECT_TRUE(Contains(json, "\"q_error\":-1")) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(QueryProfileTest, JsonEscapesLabels) {
  QueryProfile p;
  OperatorRuntime op;
  op.label = "Filter regex(\"a\\b\")";
  op.rows = 1;
  p.operators = {op};
  std::string json = p.ToJson();
  EXPECT_TRUE(Contains(json, "Filter regex(\\\"a\\\\b\\\")")) << json;
}

TEST(QueryProfileTest, TextRendersQErrorDirection) {
  QueryProfile p = TwoOperatorProfile();
  EXPECT_EQ(
      p.ToText(),
      "QUERY PROFILE  status=ok  rows=50  total=500.00 ms  first=100.00 ms\n"
      "       est     actual    q-err    wall_ms    compute queue_wait"
      "     net_ms      rows/s  operator\n"
      "       100        200    2.00v      10.00       3.00       4.00"
      "       3.00       20000  Service[src1]\n"
      "         -         50        -       8.00       8.00       2.00"
      "       0.00        6250  Project ?x\n"
      "max q-error: 2.00  (v = underestimate, ^ = overestimate)\n"
      "per-source traffic:\n"
      "       200 rows         200 msgs        3.00 ms  src1  (1 retries)\n");
  // An overestimate flips the direction marker.
  p.operators[0].estimated_rows = 400;
  EXPECT_TRUE(Contains(p.ToText(), "2.00^")) << p.ToText();
}

TEST(QueryProfileTest, EmptyProfileStillRenders) {
  QueryProfile p;
  EXPECT_TRUE(Contains(p.ToText(), "QUERY PROFILE"));
  EXPECT_TRUE(Contains(p.ToJson(), "\"operators\":[]"));
  EXPECT_DOUBLE_EQ(p.MaxQError(), -1.0);
}

}  // namespace
}  // namespace lakefed::obs
