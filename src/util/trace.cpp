#include "util/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace clrearly::util {

namespace detail {

std::atomic<bool> trace_active{false};

}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

enum class Phase : char { kComplete = 'X', kCounter = 'C' };

struct TraceEvent {
  const char* name;
  Phase phase;
  int tid;
  double ts_us;
  double dur_us;  // kComplete: duration; kCounter: the value
};

/// Small sequential thread ids: tid 0 is whichever thread touched the trace
/// first (normally main), workers follow in first-use order — stable within
/// a run under the deterministic pool.
int trace_thread_id() noexcept {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

/// Ring of the most recent kRingCapacity events, guarded by one mutex.
/// Spans are µs-scale phase boundaries, not per-evaluation events, so the
/// lock is uncontended in practice; the ring keeps the tail of a run when
/// a long exploration overflows it.
struct TraceState {
  std::mutex mutex;
  std::vector<TraceEvent> ring;
  std::size_t head = 0;       // next write slot
  std::size_t count = 0;      // live events (<= kRingCapacity)
  std::uint64_t dropped = 0;  // events overwritten by wrap-around
  std::string path;
  JsonObject metadata;
  Clock::time_point epoch = Clock::now();
  bool atexit_registered = false;
};

TraceState& state() {
  static TraceState* instance = new TraceState();
  return *instance;
}

void push_event(const TraceEvent& event) {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  if (st.ring.empty()) st.ring.resize(kRingCapacity);
  if (st.count == kRingCapacity) ++st.dropped;
  st.ring[st.head] = event;
  st.head = (st.head + 1) % kRingCapacity;
  if (st.count < kRingCapacity) ++st.count;
}

void flush_trace_at_exit() {
  if (!trace_enabled()) return;
  try {
    flush_trace();
  } catch (const std::exception&) {
    // Exit path: nothing sensible to do beyond leaving the file unwritten.
  }
}

}  // namespace

namespace detail {

double trace_now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   state().epoch)
      .count();
}

void trace_record_span(const char* name, double ts_us, double dur_us) {
  push_event(
      {name, Phase::kComplete, trace_thread_id(), ts_us, dur_us});
}

}  // namespace detail

void set_trace_path(const std::string& path) {
  TraceState& st = state();
  bool enable = false;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    st.path = path;
    enable = !path.empty();
    if (!enable) {
      st.head = 0;
      st.count = 0;
      st.dropped = 0;
    } else if (!st.atexit_registered) {
      st.atexit_registered = true;
      std::atexit(flush_trace_at_exit);
    }
  }
  detail::trace_active.store(enable, std::memory_order_relaxed);
}

const std::string& trace_path() { return state().path; }

void set_trace_metadata(JsonObject metadata) {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  st.metadata = std::move(metadata);
}

void trace_counter(const char* name, double value) {
  if (!trace_enabled()) return;
  push_event({name, Phase::kCounter, trace_thread_id(),
              detail::trace_now_us(), value});
}

std::size_t trace_event_count() {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.count;
}

std::uint64_t trace_dropped_events() {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.dropped;
}

void flush_trace() {
  if (!trace_enabled()) return;

  // Copy the ring (oldest first) under the lock, serialize outside it.
  std::vector<TraceEvent> events;
  std::string path;
  JsonObject other_data;
  std::uint64_t dropped = 0;
  {
    TraceState& st = state();
    std::lock_guard<std::mutex> lock(st.mutex);
    events.reserve(st.count);
    const std::size_t oldest =
        (st.head + kRingCapacity - st.count) % kRingCapacity;
    for (std::size_t i = 0; i < st.count; ++i) {
      events.push_back(st.ring[(oldest + i) % kRingCapacity]);
    }
    path = st.path;
    other_data = st.metadata;
    dropped = st.dropped;
  }

  other_data["dropped_events"] = static_cast<std::size_t>(dropped);

  JsonArray trace_events;
  trace_events.reserve(events.size());
  for (const TraceEvent& event : events) {
    JsonObject e;
    e["name"] = std::string(event.name);
    e["ph"] = std::string(1, static_cast<char>(event.phase));
    e["ts"] = event.ts_us;
    e["pid"] = std::size_t{1};
    e["tid"] = static_cast<std::size_t>(event.tid);
    switch (event.phase) {
      case Phase::kComplete:
        e["dur"] = event.dur_us;
        break;
      case Phase::kCounter: {
        // Counter events carry their series in "args".
        JsonObject args;
        args["value"] = event.dur_us;
        e["args"] = JsonValue(std::move(args));
        break;
      }
    }
    trace_events.push_back(JsonValue(std::move(e)));
  }

  JsonObject root;
  root["displayTimeUnit"] = std::string("ms");
  root["otherData"] = JsonValue(std::move(other_data));
  root["traceEvents"] = JsonValue(std::move(trace_events));

  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("trace: cannot open trace output file: " + path);
  }
  out << json_serialize(JsonValue(std::move(root))) << '\n';
  if (!out) {
    throw std::runtime_error("trace: failed writing trace output: " + path);
  }
}

}  // namespace clrearly::util
