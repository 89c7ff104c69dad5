// Crash-safe persistent job journal for the serve daemon.
//
// An append-only `journal.jsonl` (one JSON record per line, fsync'd after
// every append) records each job's admission — with its full, resolved
// JobSpec via the versioned wire format (src/io/serialize.*) — and every
// state transition (queued -> running -> done | failed | cancelled). On
// startup the daemon replays the journal and re-enqueues every job whose
// last recorded state is non-terminal, in original submission order, so a
// SIGKILL'd daemon resumes its queue and produces bit-identical results
// (same spec -> same model key -> same deterministic search).
//
// Durability contract:
//  * each record carries its own version tag ("v": 1); records with an
//    unknown version are skipped (counted, warned) rather than aborting
//    the replay — a v2 writer never silently corrupts a v1 reader;
//  * a torn final record (the crash happened mid-append) is detected by
//    its failed JSON parse and dropped; every earlier record replays;
//  * once the file grows past `compact_bytes`, the journal is compacted:
//    rewritten to hold only the admission records of still-live jobs
//    (terminal jobs' results are already spooled as {id}.result.json),
//    via write-to-temp + fsync + atomic rename;
//  * every write and fsync is checked. A failed append (full disk, file
//    size limit) is cut back off the file so no torn record precedes later
//    appends, counted in `server.journal.write_errors`, and reported to
//    the caller; a failed compaction keeps the old journal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "server/job.hpp"

namespace clrearly::server {

/// One journal record version. Readers skip records tagged with a version
/// they do not understand.
inline constexpr int kJournalRecordVersion = 1;

/// A record could not be made durable (write or fsync failed).
struct JournalWriteError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Everything replay() recovers about one journaled job.
struct JournalEntry {
  std::string id;
  io::JobSpec spec;
  JobPriority priority = JobPriority::kNormal;
  std::string client;  ///< admission client key (quota accounting)
  JobState last_state = JobState::kQueued;
  std::uint64_t seq = 0;  ///< submission order (monotone per journal)
};

struct JournalReplayStats {
  std::size_t records = 0;          ///< well-formed records applied
  std::size_t dropped_torn = 0;     ///< truncated/corrupt trailing records
  std::size_t skipped_version = 0;  ///< records with an unknown "v"
  std::size_t skipped_orphan = 0;   ///< state records for unknown job ids
};

class JobJournal {
 public:
  /// Opens (creating if needed) the journal at `path` for appending.
  /// `compact_bytes` is the size threshold past which an append triggers
  /// compaction (0 disables compaction).
  JobJournal(std::string path, std::size_t compact_bytes);
  ~JobJournal();
  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Parse `path` into per-job entries in submission order. Tolerates a
  /// missing file (empty result) and a torn trailing record (dropped).
  static std::vector<JournalEntry> replay(const std::string& path,
                                          JournalReplayStats* stats = nullptr);

  /// Seed the in-memory live-job table from a replay (call once, before the
  /// first append) so compaction preserves jobs admitted by a previous
  /// incarnation. Terminal entries are dropped from the table — compaction
  /// forgets them; their results live in the spool.
  void seed(const std::vector<JournalEntry>& entries);

  /// Record an admission: the full resolved spec plus priority and client
  /// key. fsync'd before returning, so an acked 202 is never lost. Throws
  /// JournalWriteError (and forgets the job) when the record could not be
  /// made durable — the caller must not acknowledge it.
  void record_submitted(const JobRecord& job, JobPriority priority,
                        const std::string& client);

  /// Record a state transition. No-ops when `state` equals the last state
  /// recorded for `id` (idempotent — the drain path re-reports states). A
  /// failed write is counted and logged, not thrown: replay then re-runs
  /// the job, whose result is deterministic.
  void record_state(const std::string& id, JobState state);

  std::size_t bytes_written() const;

 private:
  struct LiveJob {
    std::string spec_json;  ///< serialized wire-format spec
    JobPriority priority = JobPriority::kNormal;
    std::string client;
    JobState state = JobState::kQueued;
    std::uint64_t seq = 0;
  };

  /// Append one record + fsync; false (record cut back off) on failure.
  bool append_locked(const std::string& line);
  void compact_locked();
  void open_locked();

  const std::string path_;
  const std::size_t compact_bytes_;

  mutable std::mutex mutex_;
  int fd_ = -1;  ///< O_APPEND descriptor of path_
  std::size_t bytes_ = 0;
  std::uint64_t next_seq_ = 1;
  std::map<std::string, LiveJob> live_;  ///< non-terminal jobs only
};

}  // namespace clrearly::server
