// Chrome trace-event export tests: span-to-track mapping, event encoding
// (X for closed spans, B for open ones, ms-to-us conversion), metadata
// naming, JSON escaping, and the file-writing error path.

#include "obs/trace_export.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/status.h"
#include "common/string_util.h"
#include "obs/span.h"

namespace lakefed::obs {
namespace {

TEST(ChromeTraceTrackTest, SessionPhasesShareTheSessionTrack) {
  EXPECT_EQ(ChromeTraceTrack("session"), "session");
  EXPECT_EQ(ChromeTraceTrack("parse"), "session");
  EXPECT_EQ(ChromeTraceTrack("decompose"), "session");
  EXPECT_EQ(ChromeTraceTrack("source-select"), "session");
  EXPECT_EQ(ChromeTraceTrack("plan"), "session");
  EXPECT_EQ(ChromeTraceTrack("execute"), "session");
}

TEST(ChromeTraceTrackTest, SourceScopedSpansGetPerSourceTracks) {
  EXPECT_EQ(ChromeTraceTrack("service:kegg"), "source kegg");
  EXPECT_EQ(ChromeTraceTrack("wrapper:drugbank"), "source drugbank");
  EXPECT_EQ(ChromeTraceTrack("xfer:chebi"), "source chebi");
}

TEST(ChromeTraceTrackTest, OperatorsLandOnTheOperatorsTrack) {
  EXPECT_EQ(ChromeTraceTrack("join"), "operators");
  EXPECT_EQ(ChromeTraceTrack("union-arm"), "operators");
  // A trailing colon carries no source id, so it is not a source span.
  EXPECT_EQ(ChromeTraceTrack("service:"), "operators");
}

TEST(ToChromeTraceTest, ClosedSpansBecomeCompleteEvents) {
  std::vector<SpanRecord> spans = {{1, 0, "session", 0.0, 12.5}};
  std::string json = ToChromeTrace(spans);
  EXPECT_TRUE(StartsWith(json, "{\"displayTimeUnit\":\"ms\"")) << json;
  // ms convert to us: start 0.0ms -> 0.0us, duration 12.5ms -> 12500.0us.
  EXPECT_TRUE(Contains(json, "\"ph\":\"X\",\"ts\":0.0,\"dur\":12500.0"))
      << json;
  EXPECT_TRUE(Contains(json, "\"args\":{\"span_id\":1,\"parent\":0}"))
      << json;
}

TEST(ToChromeTraceTest, OpenSpansBecomeBeginEventsWithoutDuration) {
  std::vector<SpanRecord> spans = {{7, 1, "join", 2.0, -1}};
  std::string json = ToChromeTrace(spans);
  EXPECT_TRUE(Contains(json, "\"ph\":\"B\",\"ts\":2000.0,")) << json;
  EXPECT_FALSE(Contains(json, "\"dur\"")) << json;
}

TEST(ToChromeTraceTest, TracksGetThreadNameMetadataOnce) {
  std::vector<SpanRecord> spans = {
      {1, 0, "session", 0, 10},
      {2, 1, "execute", 1, 9},            // same "session" track
      {3, 1, "service:kegg", 2, 8},       // "source kegg"
      {4, 3, "xfer:kegg", 3, 4},          // same "source kegg" track
      {5, 1, "join", 2, 9},               // "operators"
  };
  std::string json = ToChromeTrace(spans);
  // One metadata event per distinct track, tids by first appearance.
  size_t first = json.find("\"name\":\"thread_name\"");
  ASSERT_NE(first, std::string::npos);
  size_t second = json.find("\"name\":\"thread_name\"", first + 1);
  ASSERT_NE(second, std::string::npos);
  size_t third = json.find("\"name\":\"thread_name\"", second + 1);
  ASSERT_NE(third, std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"thread_name\"", third + 1),
            std::string::npos)
      << json;
  EXPECT_TRUE(Contains(json, "\"tid\":1,\"args\":{\"name\":\"session\"}"))
      << json;
  EXPECT_TRUE(Contains(json, "\"tid\":2,\"args\":{\"name\":\"source kegg\"}"))
      << json;
  EXPECT_TRUE(Contains(json, "\"tid\":3,\"args\":{\"name\":\"operators\"}"))
      << json;
}

TEST(ToChromeTraceTest, SpanNamesAreJsonEscaped) {
  std::vector<SpanRecord> spans = {{1, 0, "odd \"name\"\nwith\tctrl", 0, 1}};
  std::string json = ToChromeTrace(spans);
  EXPECT_TRUE(Contains(json, "odd \\\"name\\\"\\nwith\\tctrl")) << json;
  // The raw control characters must not leak into the output.
  EXPECT_FALSE(Contains(json, "\n"));
  EXPECT_FALSE(Contains(json, "\t"));
}

TEST(ToChromeTraceTest, EmptySnapshotIsStillValidTrace) {
  EXPECT_EQ(ToChromeTrace(std::vector<SpanRecord>{}),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

TEST(ToChromeTraceTest, RecorderOverloadMatchesSnapshot) {
  SpanRecorder recorder(16);
  uint64_t root = recorder.StartSpan("session");
  uint64_t child = recorder.StartSpan("service:kegg", root);
  recorder.EndSpan(child);
  recorder.EndSpan(root);
  EXPECT_EQ(ToChromeTrace(recorder), ToChromeTrace(recorder.Snapshot()));
}

TEST(WriteChromeTraceTest, UnwritablePathFails) {
  SpanRecorder recorder(4);
  Status st = WriteChromeTrace(recorder, "/nonexistent-dir/trace.json");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(WriteChromeTraceTest, RoundTripsThroughFile) {
  SpanRecorder recorder(4);
  uint64_t id = recorder.StartSpan("parse");
  recorder.EndSpan(id);
  // Unique per process, so concurrent runs never share the file.
  std::string path = (std::filesystem::temp_directory_path() /
                      ("obs_trace_export_test_out_" +
                       std::to_string(::getpid()) + ".json"))
                         .string();
  ASSERT_TRUE(WriteChromeTrace(recorder, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), ToChromeTrace(recorder));
}

}  // namespace
}  // namespace lakefed::obs
