// Chrome trace-event emission for the DSE stack (the --trace-out flag).
//
// Spans are RAII timers: `TraceSpan span("nsga2.generation");` records a
// complete ("X") event with the calling thread's id when the span is
// destroyed. trace_counter() records counter ("C") events — per-generation
// series such as front size render as stacked charts in the viewer. Events
// land in a fixed-capacity ring buffer under a mutex; when the ring wraps,
// the oldest events are overwritten and the drop is counted, so a
// long-running process keeps the most recent window instead of growing
// without bound. flush_trace() (called automatically at exit once a path is
// set) writes the standard JSON object format:
//
//   {"displayTimeUnit": "ms",
//    "otherData": {...manifest...},
//    "traceEvents": [{"name": ..., "ph": "X", "ts": ..., "dur": ...,
//                     "pid": 1, "tid": ...}, ...]}
//
// Load the file in chrome://tracing, Perfetto (ui.perfetto.dev) or
// `about:tracing` — see docs/OBSERVABILITY.md.
//
// When tracing is disabled (no --trace-out), constructing a TraceSpan is a
// single relaxed atomic load and no event is ever recorded — the layer
// costs nothing on unobserved runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/json.hpp"

namespace clrearly::util {

namespace detail {

/// Global trace switch, read on every span construction.
extern std::atomic<bool> trace_active;

/// Record a complete ("X") event. `ts_us`/`dur_us` are microseconds since
/// the trace epoch (the first set_trace_path call).
void trace_record_span(const char* name, double ts_us, double dur_us);

/// Microseconds since the trace epoch.
double trace_now_us();

}  // namespace detail

/// True once a trace output path has been set.
inline bool trace_enabled() noexcept {
  return detail::trace_active.load(std::memory_order_relaxed);
}

/// Enable tracing to `path` (empty disables and drops buffered events).
/// The first call anchors the trace epoch; an atexit hook flushes the ring
/// to the path on normal process exit.
void set_trace_path(const std::string& path);
const std::string& trace_path();

/// Attach metadata (typically the run manifest) emitted as "otherData".
void set_trace_metadata(JsonObject metadata);

/// Record a counter ("C") event — a named scalar series over trace time.
void trace_counter(const char* name, double value);

/// Write the buffered events to `trace_path()` as Chrome trace-event JSON.
/// No-op when tracing is disabled. The buffer is not cleared, so flushing
/// twice produces two consistent files. Throws std::runtime_error when the
/// file cannot be written.
void flush_trace();

/// Events currently buffered / dropped by ring wrap-around (for tests and
/// the "dropped_events" field of the emitted file).
std::size_t trace_event_count();
std::uint64_t trace_dropped_events();

/// RAII wall-clock span. `name` must outlive the span (string literals).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept {
    if (trace_enabled()) {
      name_ = name;
      start_us_ = detail::trace_now_us();
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (name_ != nullptr) {
      const double end_us = detail::trace_now_us();
      detail::trace_record_span(name_, start_us_, end_us - start_us_);
    }
  }

  /// Seconds elapsed since construction (0 when tracing is disabled) —
  /// lets instrumentation reuse the span's clock for a histogram sample.
  double elapsed_seconds() const noexcept {
    return name_ == nullptr ? 0.0
                            : (detail::trace_now_us() - start_us_) * 1e-6;
  }

 private:
  const char* name_ = nullptr;
  double start_us_ = 0.0;
};

}  // namespace clrearly::util
