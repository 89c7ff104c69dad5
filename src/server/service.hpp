// DSE-as-a-service routing layer: maps HTTP requests onto the job queue and
// session cache. Pure request -> response (no sockets), so the whole API is
// unit-testable in process; server/server.hpp puts it behind a listener.
//
// API (all JSON; see docs/SERVER.md for the full reference):
//   POST /v1/jobs              submit a JobSpec        -> 202 | 400 | 429 | 503
//   GET  /v1/jobs              list jobs
//   GET  /v1/jobs/{id}         status + latest progress
//   GET  /v1/jobs/{id}/events  progress events (?from=N), or a live SSE
//                              stream when Accept: text/event-stream
//   GET  /v1/jobs/{id}/result  Pareto front            -> 200 | 409 | 404
//   POST /v1/jobs/{id}/cancel  cooperative cancel
//   GET  /v1/metrics           process metrics snapshot
//   GET  /v1/healthz           liveness probe
//   POST /v1/shutdown          request graceful shutdown
//
// Crash safety: with a spool directory configured, every admission and state
// transition is journaled to <spool>/journal.jsonl (see server/journal.hpp);
// a submission the journal cannot record is refused with 503.
// A restarted service replays the journal and re-enqueues interrupted jobs
// in their original order — deterministic flows then produce bit-identical
// results, as if the crash never happened.
//
// Admission control: per-client token buckets (X-Client-Key header; jobs
// without the header share the "default" bucket) reject over-rate clients
// with 429 + Retry-After before they reach the queue. quota_rate = 0
// disables quotas. The X-Priority header ("high" | "normal") selects the
// queue's scheduling level.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "server/http.hpp"
#include "server/job.hpp"
#include "server/job_queue.hpp"
#include "server/journal.hpp"

namespace clrearly::server {

struct ServiceOptions {
  std::size_t workers = 2;       ///< concurrent DSE jobs
  std::size_t queue_depth = 16;  ///< max *waiting* jobs before 429
  std::size_t max_sessions = 8;  ///< model sessions kept warm (LRU)
  /// When non-empty: every accepted job's spec is written to
  /// <spool>/<id>.spec.json on admission and its result to
  /// <id>.result.json on completion, so any run can be replayed offline.
  /// Also enables the crash-safe job journal at <spool>/journal.jsonl.
  std::string spool_dir;
  /// Journal size threshold (bytes) past which an append triggers
  /// compaction. 0 disables compaction.
  std::size_t journal_compact_bytes = 1 << 20;
  /// Per-client admission quota: sustained submissions/second. 0 disables
  /// quota enforcement (the default — in-process embedders opt in). Must be
  /// finite and non-negative.
  double quota_rate = 0.0;
  /// Token-bucket burst: submissions a client may make back-to-back before
  /// the sustained rate applies. At least 1 while quotas are on.
  double quota_burst = 8.0;
};

class DseService {
 public:
  /// Delivers one SSE frame (already "data:"-framed text); returns false
  /// when the client is gone and streaming should stop.
  using EventSink = std::function<bool(const std::string&)>;

  /// Throws std::invalid_argument for quota settings outside the ranges
  /// documented on ServiceOptions.
  explicit DseService(ServiceOptions options);

  /// Route one request. Never throws; internal errors become 500s.
  HttpResponse handle(const HttpRequest& request);

  /// True when `request` asks for a live event stream (GET .../events with
  /// Accept: text/event-stream) — the transport should call
  /// stream_events_sse() instead of handle().
  static bool wants_sse(const HttpRequest& request);

  /// Stream progress events for the job in `request`'s path through `sink`
  /// as Server-Sent Events frames: `id:` carries the event sequence (a
  /// resume cursor for `?from=` / Last-Event-ID), heartbeat comments flow
  /// while the job is idle, and a final `event: state` frame closes the
  /// stream when the job reaches a terminal state. Returns an error
  /// response *before any frame is written* when the request is not
  /// streamable (unknown job, bad cursor), nullopt after a completed
  /// stream. Ends early (nullopt) on client loss or service shutdown.
  std::optional<HttpResponse> stream_events_sse(const HttpRequest& request,
                                                const EventSink& sink);

  /// True once POST /v1/shutdown was received (the serving loop polls this).
  bool shutdown_requested() const noexcept { return shutdown_.load(); }
  void request_shutdown() noexcept { shutdown_.store(true); }

  /// Drain/stop the queue (see JobQueue::shutdown), then journal the final
  /// state of every job so a later restart replays nothing twice.
  /// Idempotent.
  void shutdown(bool cancel_pending);

  JobQueue& queue() noexcept { return queue_; }
  SessionCache& sessions() noexcept { return sessions_; }
  /// Journal replay statistics from construction (all zero without a spool
  /// or on a fresh journal).
  const JournalReplayStats& replay_stats() const noexcept {
    return replay_stats_;
  }

 private:
  /// Sliding token bucket; `tokens` is refilled lazily from `last_refill`.
  struct QuotaBucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last_refill;
  };

  HttpResponse submit(const HttpRequest& request);
  HttpResponse job_status(const std::string& id) const;
  HttpResponse job_events(const HttpRequest& request,
                          const std::string& id) const;
  HttpResponse job_result(const std::string& id) const;
  HttpResponse job_cancel(const std::string& id);
  HttpResponse list_jobs() const;
  HttpResponse metrics() const;

  void run_one(JobRecord& job);
  void replay_journal();
  /// nullopt when the client is within quota; otherwise the Retry-After
  /// value (seconds) to advertise.
  std::optional<int> quota_retry_after(const std::string& client);

  void spool_spec(const JobRecord& job) const;
  void spool_result(const JobRecord& job) const;

  const ServiceOptions options_;
  SessionCache sessions_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> next_id_{0};

  std::unique_ptr<JobJournal> journal_;  ///< null without a spool dir
  JournalReplayStats replay_stats_;

  std::mutex quota_mutex_;
  std::map<std::string, QuotaBucket> quota_;

  JobQueue queue_;  ///< declared last: its workers use the members above
};

}  // namespace clrearly::server
