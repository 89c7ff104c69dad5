// The trace layer's contracts: disabled tracing records nothing (and
// TraceSpan costs only the enabled check), enabled tracing emits Chrome
// trace-event JSON that util::json parses back with the right phases and
// fields, disabling drops the buffer, and ring wrap-around counts drops
// instead of growing without bound. The trace state is process-global, so
// every test starts by setting its own path and ends disabled.
#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace clrearly::util {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { set_trace_path(""); }
  void TearDown() override { set_trace_path(""); }
};

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  EXPECT_FALSE(trace_enabled());
  {
    TraceSpan span("never.recorded");
    EXPECT_EQ(span.elapsed_seconds(), 0.0);
  }
  trace_counter("never.counter", 1.0);
  EXPECT_EQ(trace_event_count(), 0u);
  flush_trace();  // no-op, must not throw or create files
}

TEST_F(TraceTest, FlushWritesValidChromeTraceJson) {
  const std::string path = temp_path("trace_test_basic.json");
  set_trace_path(path);
  ASSERT_TRUE(trace_enabled());
  EXPECT_EQ(trace_path(), path);

  JsonObject meta;
  meta["seed"] = std::string("42");
  set_trace_metadata(std::move(meta));

  { TraceSpan span("test.span"); }
  trace_counter("test.counter", 3.5);
  EXPECT_EQ(trace_event_count(), 2u);
  flush_trace();

  const JsonValue root = json_parse(slurp(path));
  EXPECT_EQ(root.at("displayTimeUnit").as_string(), "ms");
  EXPECT_EQ(root.at("otherData").at("seed").as_string(), "42");
  EXPECT_EQ(root.at("otherData").at("dropped_events").as_number(), 0.0);

  const JsonArray& events = root.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  // Ring order is record order: span end, counter.
  const JsonValue& span = events[0];
  EXPECT_EQ(span.at("name").as_string(), "test.span");
  EXPECT_EQ(span.at("ph").as_string(), "X");
  EXPECT_GE(span.at("dur").as_number(), 0.0);
  EXPECT_GE(span.at("ts").as_number(), 0.0);
  EXPECT_EQ(span.at("pid").as_number(), 1.0);

  const JsonValue& counter = events[1];
  EXPECT_EQ(counter.at("ph").as_string(), "C");
  EXPECT_EQ(counter.at("args").at("value").as_number(), 3.5);
}

TEST_F(TraceTest, FlushTwiceProducesTwoConsistentFiles) {
  const std::string path = temp_path("trace_test_twice.json");
  set_trace_path(path);
  trace_counter("test.twice", 1.0);
  flush_trace();
  const std::string first = slurp(path);
  flush_trace();  // the buffer is not cleared by a flush
  EXPECT_EQ(slurp(path), first);
}

TEST_F(TraceTest, DisablingDropsTheBuffer) {
  set_trace_path(temp_path("trace_test_drop.json"));
  trace_counter("test.dropped", 1.0);
  EXPECT_EQ(trace_event_count(), 1u);
  set_trace_path("");
  EXPECT_FALSE(trace_enabled());
  EXPECT_EQ(trace_event_count(), 0u);
  EXPECT_EQ(trace_dropped_events(), 0u);
}

TEST_F(TraceTest, RingWrapKeepsTheTailAndCountsDrops) {
  const std::string path = temp_path("trace_test_wrap.json");
  set_trace_path(path);
  const std::size_t capacity = std::size_t{1} << 16;  // kRingCapacity
  const std::size_t extra = 100;
  for (std::size_t i = 0; i < capacity + extra; ++i) {
    trace_counter(i < extra ? "test.old" : "test.new", 1.0);
  }
  EXPECT_EQ(trace_event_count(), capacity);
  EXPECT_EQ(trace_dropped_events(), extra);
  flush_trace();
  const JsonValue root = json_parse(slurp(path));
  EXPECT_EQ(root.at("otherData").at("dropped_events").as_number(),
            double(extra));
  const JsonArray& events = root.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), capacity);
  // The overwritten events are exactly the oldest ones.
  for (const JsonValue& event : events) {
    EXPECT_EQ(event.at("name").as_string(), "test.new");
  }
}

TEST_F(TraceTest, FlushThrowsOnUnwritablePath) {
  set_trace_path("/nonexistent_dir_for_trace_test/out.json");
  trace_counter("test.unwritable", 1.0);
  EXPECT_THROW(flush_trace(), std::runtime_error);
}

}  // namespace
}  // namespace clrearly::util
