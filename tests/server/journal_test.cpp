// JobJournal tests: record round-tripping, torn-tail tolerance, version
// skipping, compaction, write-failure handling, replay of records written
// before the island model's removal, and the headline crash-safety property
// — a daemon SIGKILL'd with admitted jobs still pending resumes them after
// restart and produces bit-identical results.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/journal.hpp"
#include "server/service.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace clrearly::server {
namespace {

io::JobSpec tiny_spec(int seed) {
  io::JobSpec spec;
  spec.application = io::resolve_application("synthetic:4:1");
  spec.architecture = io::resolve_architecture("default");
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.ga.population_size = 8;
  spec.ga.generations = 2;
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

HttpRequest make_request(std::string method, std::string path,
                         std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.path = std::move(path);
  request.body = std::move(body);
  return request;
}

std::string job_body(int seed, int generations) {
  return std::string(R"({
    "format_version": 1, "flow": "pfclr", "seed": )") +
         std::to_string(seed) +
         R"(, "ga": {"population_size": 16, "generations": )" +
         std::to_string(generations) + R"(},
    "application": "synthetic:6:2"
  })";
}

/// Poll a service until `id` reaches a terminal state; returns that state.
std::string wait_terminal(DseService& service, const std::string& id) {
  for (int i = 0; i < 3000; ++i) {
    const HttpResponse status =
        service.handle(make_request("GET", "/v1/jobs/" + id));
    if (status.status != 200) return "missing";
    const std::string state =
        util::json_parse(status.body).at("state").as_string();
    if (state == "done" || state == "failed" || state == "cancelled") {
      return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return "timeout";
}

util::JsonValue fetch_front(DseService& service, const std::string& id) {
  const HttpResponse response =
      service.handle(make_request("GET", "/v1/jobs/" + id + "/result"));
  EXPECT_EQ(response.status, 200) << response.body;
  return util::json_parse(response.body).at("front");
}

TEST(JournalTest, RecordsRoundTripWithPriorityAndClient) {
  const std::string dir = fresh_dir("journal_roundtrip");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    JobRecord high("job-000001", tiny_spec(1), JobPriority::kHigh);
    JobRecord normal("job-000002", tiny_spec(2));
    journal.record_submitted(high, JobPriority::kHigh, "alice");
    journal.record_submitted(normal, JobPriority::kNormal, "default");
    journal.record_state("job-000001", JobState::kRunning);
    journal.record_state("job-000002", JobState::kDone);
  }
  JournalReplayStats stats;
  const std::vector<JournalEntry> entries = JobJournal::replay(path, &stats);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(stats.dropped_torn, 0u);
  EXPECT_EQ(entries[0].id, "job-000001");
  EXPECT_EQ(entries[0].priority, JobPriority::kHigh);
  EXPECT_EQ(entries[0].client, "alice");
  EXPECT_EQ(entries[0].last_state, JobState::kRunning);
  EXPECT_EQ(entries[0].spec.seed, 1u);
  EXPECT_EQ(entries[0].spec.model_key(), tiny_spec(1).model_key());
  EXPECT_EQ(entries[1].last_state, JobState::kDone);
  EXPECT_LT(entries[0].seq, entries[1].seq);
}

TEST(JournalTest, TornTrailingRecordIsDropped) {
  const std::string dir = fresh_dir("journal_torn");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                             JobPriority::kNormal, "default");
    journal.record_submitted(JobRecord("job-000002", tiny_spec(2)),
                             JobPriority::kNormal, "default");
  }
  // Simulate a crash mid-append: cut the file inside the last record.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 25);

  JournalReplayStats stats;
  const std::vector<JournalEntry> entries = JobJournal::replay(path, &stats);
  ASSERT_EQ(entries.size(), 1u);  // everything before the tear replays
  EXPECT_EQ(entries[0].id, "job-000001");
  EXPECT_EQ(stats.dropped_torn, 1u);
}

TEST(JournalTest, UnknownVersionRecordsAreSkippedNotFatal) {
  const std::string dir = fresh_dir("journal_version");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                             JobPriority::kNormal, "default");
  }
  {
    // A hypothetical future writer's record plus an orphan state line.
    std::ofstream out(path, std::ios::app);
    out << R"({"v": 2,"type": "submit","id": "job-000009","seq": 9})" << "\n";
    out << R"({"v": 1,"type": "state","id": "job-000404","state": "done"})"
        << "\n";
  }
  JournalReplayStats stats;
  const std::vector<JournalEntry> entries = JobJournal::replay(path, &stats);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id, "job-000001");
  EXPECT_EQ(stats.skipped_version, 1u);
  EXPECT_EQ(stats.skipped_orphan, 1u);
  EXPECT_EQ(stats.dropped_torn, 0u);
}

TEST(JournalTest, MalformedVersionAndSeqAreSkippedNotCast) {
  // "v" and "seq" go through the wire format's checked integer helper: a
  // negative, fractional or out-of-range value is a malformed record,
  // skipped like any other, never cast.
  const std::string dir = fresh_dir("journal_bad_ints");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                             JobPriority::kNormal, "default");
  }
  std::ifstream in(path);
  std::string good;
  std::getline(in, good);
  in.close();
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string line = good;
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return line.replace(at, from.size(), to);
  };
  const std::vector<std::string> bad = {
      with(R"("seq": 1)", R"("seq": 1e300)"),
      with(R"("seq": 1)", R"("seq": -1)"),
      with(R"("seq": 1)", R"("seq": 2.5)"),
      with(R"("v": 1)", R"("v": 1e300)"),
      with(R"("v": 1)", R"("v": 4294967297)"),
      with(R"("v": 1)", R"("v": -1)"),
      with(R"("v": 1)", R"("v": 1.5)")};
  {
    std::ofstream out(path, std::ios::app);
    for (const std::string& line : bad) out << line << "\n";
  }
  JournalReplayStats stats;
  const std::vector<JournalEntry> entries = JobJournal::replay(path, &stats);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].seq, 1u);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.skipped_version, bad.size());
  EXPECT_EQ(stats.dropped_torn, 0u);
}

TEST(JournalTest, CompactionKeepsOnlyLiveJobs) {
  const std::string dir = fresh_dir("journal_compact");
  const std::string path = dir + "/journal.jsonl";
  // compact_bytes=1: every append crosses the threshold, so the journal is
  // compacted continuously — the file never holds more than the live set.
  JobJournal journal(path, /*compact_bytes=*/1);
  journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                           JobPriority::kNormal, "default");
  journal.record_submitted(JobRecord("job-000002", tiny_spec(2)),
                           JobPriority::kNormal, "default");
  const std::size_t both = journal.bytes_written();
  journal.record_state("job-000001", JobState::kRunning);
  journal.record_state("job-000001", JobState::kDone);
  // The terminal job is gone from the (compacted) file.
  EXPECT_LT(journal.bytes_written(), both);
  const std::vector<JournalEntry> entries = JobJournal::replay(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id, "job-000002");
  EXPECT_EQ(entries[0].last_state, JobState::kQueued);
}

TEST(JournalTest, FailedCompactionKeepsTheOldJournal) {
  // The compaction temp file is a symlink to /dev/full, so its write fails
  // with ENOSPC: the temp file goes, the old journal stays whole.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string dir = fresh_dir("journal_compact_fail");
  const std::string path = dir + "/journal.jsonl";
  const util::Counter& errors =
      util::metric_counter("server.journal.write_errors");
  const std::uint64_t errors_before = errors.value();
  JobJournal journal(path, /*compact_bytes=*/1);
  std::filesystem::create_symlink("/dev/full", path + ".tmp");
  journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                           JobPriority::kNormal, "default");
  EXPECT_EQ(errors.value(), errors_before + 1);
  EXPECT_FALSE(std::filesystem::is_symlink(path + ".tmp"));
  // Renaming the temp file over the journal would make it /dev/full, which
  // replay would read forever.
  ASSERT_FALSE(std::filesystem::is_symlink(path));
  ASSERT_EQ(JobJournal::replay(path).size(), 1u);

  // The next compaction succeeds and still holds every live job.
  journal.record_submitted(JobRecord("job-000002", tiny_spec(2)),
                           JobPriority::kNormal, "default");
  EXPECT_EQ(errors.value(), errors_before + 1);
  const std::vector<JournalEntry> entries = JobJournal::replay(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].id, "job-000002");
}

TEST(JournalTest, SeedCompactsAwayTerminalJobsOnRestart) {
  const std::string dir = fresh_dir("journal_seed");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                             JobPriority::kNormal, "default");
    journal.record_submitted(JobRecord("job-000002", tiny_spec(2)),
                             JobPriority::kNormal, "default");
    journal.record_state("job-000001", JobState::kDone);
  }
  const std::vector<JournalEntry> first = JobJournal::replay(path);
  ASSERT_EQ(first.size(), 2u);
  {
    // Restart: seeding rewrites the journal without the terminal job.
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.seed(first);
  }
  const std::vector<JournalEntry> second = JobJournal::replay(path);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, "job-000002");
}

TEST(JournalTest, WriteFailureAnswers503AndKeepsEarlierJobs) {
  // A full disk without a production hook: a forked child caps its own
  // file size (RLIMIT_FSIZE) just past the journal, with SIGXFSZ ignored so
  // the failing write returns EFBIG instead of killing the process. The
  // child's exit code names the first check that failed (0 = all held).
  const std::string spool = fresh_dir("journal_write_error_spool");
  const std::string journal = spool + "/journal.jsonl";
  const std::string body = job_body(/*seed=*/21, /*generations=*/2);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    ServiceOptions options;
    options.workers = 1;
    options.spool_dir = spool;
    DseService service(options);
    if (service.handle(make_request("POST", "/v1/jobs", body)).status != 202) {
      ::_exit(10);
    }
    const util::Counter& errors =
        util::metric_counter("server.journal.write_errors");
    const std::uint64_t errors_before = errors.value();
    ::signal(SIGXFSZ, SIG_IGN);
    rlimit limit{};
    if (::getrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(11);
    const rlim_t unlimited = limit.rlim_cur;
    limit.rlim_cur = std::filesystem::file_size(journal) + 16;
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(11);

    // The submit record cannot be made durable: 503, counted, withdrawn.
    const HttpResponse refused =
        service.handle(make_request("POST", "/v1/jobs", body));
    if (refused.status != 503) ::_exit(12);
    if (errors.value() <= errors_before) ::_exit(13);
    if (service.queue().find("job-000002") != nullptr) ::_exit(14);
    if (std::filesystem::exists(spool + "/job-000002.spec.json")) ::_exit(15);

    // Room again: the next submit lands behind no torn record.
    limit.rlim_cur = unlimited;
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(11);
    if (service.handle(make_request("POST", "/v1/jobs", body)).status != 202) {
      ::_exit(16);
    }
    ::_exit(0);  // skip the drain: only the journal matters here
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child died (status " << status << ")";
  ASSERT_EQ(WEXITSTATUS(status), 0) << "child check failed";

  // Replay sees every acknowledged job and nothing of the refused one.
  JournalReplayStats stats;
  const std::vector<JournalEntry> entries = JobJournal::replay(journal, &stats);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, "job-000001");
  EXPECT_EQ(entries[1].id, "job-000003");
  EXPECT_EQ(stats.dropped_torn, 0u);
}

TEST(JournalTest, LegacySubmitLineReplaysBitIdentically) {
  // A submit record written before the island model's removal: its spec
  // carries the legacy "islands": {"count": 1, ...} object. It must still
  // replay and re-run to the front that build recorded, bit for bit.
  const std::string data = CLREARLY_TEST_DATA_DIR;
  const std::string spool = fresh_dir("journal_legacy_spool");
  std::filesystem::copy_file(data + "/legacy_islands_submit.jsonl",
                             spool + "/journal.jsonl");
  std::ifstream in(data + "/legacy_islands_front.json");
  std::stringstream text;
  text << in.rdbuf();
  const util::JsonValue expected = util::json_parse(text.str());

  ServiceOptions options;
  options.workers = 1;
  options.spool_dir = spool;
  DseService revived(options);
  EXPECT_EQ(revived.replay_stats().records, 1u);
  EXPECT_EQ(revived.replay_stats().skipped_version, 0u);
  ASSERT_EQ(wait_terminal(revived, "job-000001"), "done");
  const HttpResponse response =
      revived.handle(make_request("GET", "/v1/jobs/job-000001/result"));
  ASSERT_EQ(response.status, 200) << response.body;
  const util::JsonValue result = util::json_parse(response.body);
  EXPECT_EQ(result.at("front"), expected.at("front"));
  EXPECT_EQ(result.at("evaluations"), expected.at("evaluations"));
  revived.shutdown(/*cancel_pending=*/false);
}

TEST(JournalTest, KillAndRestartReplaysBitIdentically) {
  const std::string spool = fresh_dir("journal_crash_spool");
  const std::string slow = job_body(/*seed=*/11, /*generations=*/40);
  const std::string fast = job_body(/*seed=*/12, /*generations=*/3);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child incarnation: admit two jobs, then die as hard as a process can
    // — no destructors, no flushes beyond what the journal already forced.
    ServiceOptions options;
    options.workers = 1;
    options.spool_dir = spool;
    DseService victim(options);
    const HttpResponse a =
        victim.handle(make_request("POST", "/v1/jobs", slow));
    const HttpResponse b =
        victim.handle(make_request("POST", "/v1/jobs", fast));
    if (a.status != 202 || b.status != 202) ::_exit(2);
    ::raise(SIGKILL);
    ::_exit(3);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child did not die by SIGKILL (status " << status << ")";

  // The fsync'd journal survived the kill with both admissions.
  JournalReplayStats stats;
  const std::vector<JournalEntry> entries =
      JobJournal::replay(spool + "/journal.jsonl", &stats);
  ASSERT_EQ(entries.size(), 2u) << "admissions lost across SIGKILL";

  // Restart on the same spool: both jobs are re-enqueued and finish.
  ServiceOptions options;
  options.workers = 1;
  options.spool_dir = spool;
  DseService revived(options);
  ASSERT_EQ(wait_terminal(revived, "job-000001"), "done");
  ASSERT_EQ(wait_terminal(revived, "job-000002"), "done");
  const util::JsonValue front1 = fetch_front(revived, "job-000001");
  const util::JsonValue front2 = fetch_front(revived, "job-000002");

  // A new submission must not collide with the replayed ids.
  const HttpResponse next =
      revived.handle(make_request("POST", "/v1/jobs", fast));
  ASSERT_EQ(next.status, 202);
  EXPECT_EQ(util::json_parse(next.body).at("id").as_string(), "job-000003");
  ASSERT_EQ(wait_terminal(revived, "job-000003"), "done");
  revived.shutdown(/*cancel_pending=*/false);

  // Reference: the same specs through a never-crashed service. Determinism
  // makes crash recovery invisible — the fronts agree bit for bit.
  ServiceOptions clean;
  clean.workers = 1;
  DseService reference(clean);
  const HttpResponse ra =
      reference.handle(make_request("POST", "/v1/jobs", slow));
  const HttpResponse rb =
      reference.handle(make_request("POST", "/v1/jobs", fast));
  ASSERT_EQ(ra.status, 202);
  ASSERT_EQ(rb.status, 202);
  const std::string ref_slow = util::json_parse(ra.body).at("id").as_string();
  const std::string ref_fast = util::json_parse(rb.body).at("id").as_string();
  ASSERT_EQ(wait_terminal(reference, ref_slow), "done");
  ASSERT_EQ(wait_terminal(reference, ref_fast), "done");
  EXPECT_EQ(front1, fetch_front(reference, ref_slow));
  EXPECT_EQ(front2, fetch_front(reference, ref_fast));
  reference.shutdown(/*cancel_pending=*/false);

  // After a graceful drain everything is terminal: the journal forgets the
  // jobs on the next restart and replays nothing.
  ServiceOptions again;
  again.workers = 1;
  again.spool_dir = spool;
  DseService idle(again);
  EXPECT_EQ(idle.queue().jobs().size(), 0u);
  EXPECT_EQ(idle.replay_stats().dropped_torn, 0u);
}

}  // namespace
}  // namespace clrearly::server
