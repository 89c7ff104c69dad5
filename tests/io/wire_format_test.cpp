// Wire-format tests: JSON round-trips for the serve job format, strict
// rejection of malformed/unknown input, and the replay pin — a spooled spec
// re-executes bit-identically through the same flow entry points.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/dse.hpp"
#include "core/scenario.hpp"
#include "io/serialize.hpp"
#include "server/http.hpp"
#include "util/json.hpp"

namespace clrearly {
namespace {

io::JobSpec small_spec() {
  io::JobSpec spec;
  spec.name = "unit";
  spec.flow = "pfclr";
  spec.seed = 42;
  spec.threads = 2;
  spec.heuristic_seed = true;
  spec.scenario = {"bench", 3.5, 1.0};
  spec.ga.population_size = 12;
  spec.ga.generations = 3;
  spec.ga.crossover_prob = 0.75;
  spec.ga.mutation_prob = 0.3;
  spec.ga.mutation_indpb = 0.07;
  spec.objectives.mttf = true;
  spec.objectives.w_error_prob = 2.0;
  spec.spec.min_functional_rel = 0.9;
  spec.spec.max_energy_uj = 1e9;
  spec.tdse_objectives = core::TdseObjectives::table4_row(3);
  spec.application = io::resolve_application("sobel");
  spec.architecture = io::resolve_architecture("default");
  return spec;
}

/// Canonical-JSON equality: JsonObject is a sorted map and doubles print
/// shortest-round-trip, so equal specs serialize to equal strings.
std::string canon(const io::JobSpec& spec) {
  return util::json_serialize(io::to_json(spec));
}

TEST(WireFormatTest, JobSpecRoundTripsThroughJson) {
  const io::JobSpec spec = small_spec();
  const io::JobSpec back =
      io::job_spec_from_json(util::json_parse(canon(spec)));
  EXPECT_EQ(canon(spec), canon(back));
  EXPECT_EQ(back.flow, "pfclr");
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.threads, 2u);
  EXPECT_TRUE(back.heuristic_seed);
  EXPECT_DOUBLE_EQ(back.scenario.environment_factor, 3.5);
  EXPECT_EQ(back.ga.population_size, 12u);
  ASSERT_TRUE(back.spec.min_functional_rel.has_value());
  EXPECT_DOUBLE_EQ(*back.spec.min_functional_rel, 0.9);
  EXPECT_FALSE(back.spec.max_makespan_us.has_value());
}

TEST(WireFormatTest, QosSpecAbsentKeysStayUnset) {
  const sched::QosSpec empty =
      io::qos_spec_from_json(util::json_parse("{}"));
  EXPECT_FALSE(empty.max_makespan_us.has_value());
  EXPECT_FALSE(empty.min_functional_rel.has_value());
  EXPECT_FALSE(empty.min_mttf_hours.has_value());
  EXPECT_FALSE(empty.max_energy_uj.has_value());
  EXPECT_FALSE(empty.max_peak_power_w.has_value());
}

TEST(WireFormatTest, AcceptsSpecStringShorthands) {
  const io::JobSpec spec = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1,
    "application": "synthetic:6:3"
  })"));
  EXPECT_EQ(spec.application.graph.num_tasks(), 6u);
  EXPECT_EQ(spec.architecture.num_pes(),
            platform::Architecture::paper_default().num_pes());
  EXPECT_EQ(spec.flow, "proposed");
  EXPECT_EQ(spec.seed, 1u);
}

TEST(WireFormatTest, RejectsUnknownFormatVersion) {
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(
                   R"({"format_version": 2, "application": "sobel"})")),
               std::runtime_error);
  // And a missing version is just as unacceptable.
  EXPECT_THROW(
      io::job_spec_from_json(util::json_parse(R"({"application": "sobel"})")),
      std::runtime_error);
}

TEST(WireFormatTest, RejectsUnknownTopLevelKeys) {
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1,
                 "application": "sobel",
                 "sed": 7
               })")),
               std::runtime_error);
}

TEST(WireFormatTest, RejectsBadFlowAndMalformedFields) {
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "flow": "warp-speed"
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "seed": -3
               })")),
               std::runtime_error);
  // Nsga2Params::validate() flags semantic nonsense as invalid_argument.
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "ga": {"population_size": 1}
               })")),
               std::invalid_argument);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "ga": {"generations": "many"}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "scenario": {"environment_factor": -1}
               })")),
               std::runtime_error);
}

/// job_spec_from_json over a minimal Sobel job plus one extra field.
io::JobSpec parse_with(const std::string& field) {
  return io::job_spec_from_json(util::json_parse(
      R"({"format_version": 1, "application": "sobel", )" + field + "}"));
}

TEST(WireFormatTest, IntegerFieldsAreCheckedBeforeAnyCast) {
  // Out of range, negative or fractional: every one is rejected before a
  // cast could turn it into undefined behaviour or a silent truncation.
  for (const char* bad :
       {R"("seed": 1e300)", R"("seed": 18446744073709551616)",
        R"("seed": -1)", R"("seed": 2.5)", R"("threads": 1e300)",
        R"("ga": {"population_size": 1e20})",
        R"("ga": {"tournament_k": 0.5})",
        R"("resilience": {"max_failures": -2})",
        R"("resilience": {"spare_pes": [1e300]})"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parse_with(bad), std::runtime_error);
  }
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(
                   R"({"format_version": 1e300, "application": "sobel"})")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(
                   R"({"format_version": 4294967297, "application": "sobel"})")),
               std::runtime_error);
  // The largest double below 2^64 is still an integer in range.
  EXPECT_EQ(parse_with(R"("seed": 18446744073709549568)").seed,
            18446744073709549568ull);
  EXPECT_EQ(parse_with(R"("seed": 0)").seed, 0u);
}

TEST(WireFormatTest, SyntheticSpecParsingIsStrict) {
  for (const char* bad :
       {"synthetic:5abc", "synthetic: 7", "synthetic:7 ", "synthetic:-1",
        "synthetic:+5", "synthetic:0", "synthetic:", "synthetic:5:",
        "synthetic:5:x", "synthetic:5:-1", "synthetic:5: 1", "synthetic:5:1:2",
        "synthetic:99999999999999999999999",
        "synthetic:5:18446744073709551616", "synthetic:70001",
        "synthetic:1000000000"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(io::resolve_application(bad), std::runtime_error);
    // The wire format resolves the same strings, so POST /v1/jobs
    // answers 400 instead of allocating for them.
    EXPECT_THROW(io::job_spec_from_json(util::json_parse(
                     std::string(R"({"format_version": 1, "application": ")") +
                     bad + R"("})")),
                 std::runtime_error);
  }
  EXPECT_EQ(io::resolve_application("synthetic:5").graph.num_tasks(), 5u);
  EXPECT_EQ(io::resolve_application("synthetic:5:18446744073709551615")
                .graph.num_tasks(),
            5u);
  EXPECT_EQ(io::kMaxSyntheticTasks, 70000u);
}

TEST(WireFormatTest, LargestSyntheticSpecFitsTheRequestBodyLimit) {
  // The spooled spec embeds the resolved model; at the task cap it must
  // still be resubmittable over HTTP, whatever the seed's digit counts.
  for (const char* seed : {"1", "7", "18446744073709551615"}) {
    SCOPED_TRACE(seed);
    const io::JobSpec spec = io::job_spec_from_json(util::json_parse(
        std::string(R"({"format_version": 1, "application": "synthetic:)") +
        std::to_string(io::kMaxSyntheticTasks) + ":" + seed + R"("})"));
    ASSERT_EQ(spec.application.graph.num_tasks(), io::kMaxSyntheticTasks);
    const std::size_t bytes =
        util::json_serialize(io::to_json(spec)).size();
    EXPECT_LT(bytes, server::kMaxBodyBytes);
  }
}

TEST(WireFormatTest, LegacyArchiveSizeParsesAndIsIgnored) {
  // The NSGA-II external archive is gone; old specs and journals carrying
  // ga.archive_size still parse, to the same job, and nothing emits it.
  const io::JobSpec legacy = parse_with(R"("ga": {"archive_size": 50})");
  const io::JobSpec plain = parse_with(R"("ga": {})");
  EXPECT_EQ(canon(legacy), canon(plain));
  EXPECT_EQ(io::to_json(small_spec()).at("ga").find("archive_size"), nullptr);
  // Still checked: a malformed value is rejected, not ignored.
  EXPECT_THROW(parse_with(R"("ga": {"archive_size": -1})"),
               std::runtime_error);
  EXPECT_THROW(parse_with(R"("ga": {"archive_size": 1e300})"),
               std::runtime_error);
}

TEST(WireFormatTest, ResilienceSpecRoundTripsThroughJson) {
  io::JobSpec spec = small_spec();
  spec.flow = "kresilient";
  spec.resilience.max_failures = 2;
  spec.resilience.mission_hours = 8760.0;
  spec.resilience.spare_pes = {1, 3};
  spec.resilience.spare_penalty_weight = 2.5;
  spec.resilience.degraded_spec.max_makespan_us = 5000.0;
  spec.resilience.degraded_spec.max_energy_uj = 2e8;

  const io::JobSpec back =
      io::job_spec_from_json(util::json_parse(canon(spec)));
  EXPECT_EQ(canon(spec), canon(back));
  EXPECT_EQ(back.flow, "kresilient");
  EXPECT_EQ(back.resilience.max_failures, 2u);
  EXPECT_DOUBLE_EQ(back.resilience.mission_hours, 8760.0);
  ASSERT_EQ(back.resilience.spare_pes.size(), 2u);
  EXPECT_EQ(back.resilience.spare_pes[0], 1u);
  EXPECT_EQ(back.resilience.spare_pes[1], 3u);
  EXPECT_DOUBLE_EQ(back.resilience.spare_penalty_weight, 2.5);
  ASSERT_TRUE(back.resilience.degraded_spec.max_makespan_us.has_value());
  EXPECT_DOUBLE_EQ(*back.resilience.degraded_spec.max_makespan_us, 5000.0);
  ASSERT_TRUE(back.resilience.degraded_spec.max_energy_uj.has_value());
  EXPECT_DOUBLE_EQ(*back.resilience.degraded_spec.max_energy_uj, 2e8);
  EXPECT_FALSE(back.resilience.degraded_spec.min_functional_rel.has_value());
  EXPECT_EQ(back.resilience, spec.resilience);
}

TEST(WireFormatTest, ResilienceAbsentKeepsDefaults) {
  const io::JobSpec spec = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1,
    "application": "sobel"
  })"));
  EXPECT_EQ(spec.resilience, core::ResilienceSpec{});
  EXPECT_EQ(spec.resilience.max_failures, 1u);
  EXPECT_DOUBLE_EQ(spec.resilience.mission_hours, 20000.0);
  EXPECT_TRUE(spec.resilience.spare_pes.empty());
}

TEST(WireFormatTest, AcceptsKResilientFlow) {
  const io::JobSpec spec = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1,
    "application": "sobel",
    "flow": "kresilient",
    "resilience": {"max_failures": 1, "mission_hours": 10000}
  })"));
  EXPECT_EQ(spec.flow, "kresilient");
  EXPECT_EQ(spec.resilience.max_failures, 1u);
  EXPECT_DOUBLE_EQ(spec.resilience.mission_hours, 10000.0);
}

TEST(WireFormatTest, RejectsMalformedResilience) {
  // Unknown sub-keys inside "resilience" are rejected just like top-level.
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "resilience": {"max_failure": 1}
               })")),
               std::runtime_error);
  // Semantic validation runs against the resolved architecture: a failure
  // budget that equals the PE count can never leave a surviving mapping.
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "resilience": {"max_failures": 99}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "resilience": {"mission_hours": -5}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "resilience": {"spare_pes": [99]}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "resilience": {"max_failures": -1}
               })")),
               std::runtime_error);
}

TEST(WireFormatTest, LegacyIslandsCountOneParsesAndIsIgnored) {
  // Specs and journals written before the island model's removal carry
  // this object; it still parses, to the same job as a spec without it.
  const io::JobSpec legacy = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1, "application": "sobel",
    "islands": {"count": 1, "migration_interval": 10, "migration_size": 4}
  })"));
  const io::JobSpec plain = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1, "application": "sobel"
  })"));
  EXPECT_EQ(canon(legacy), canon(plain));
  EXPECT_EQ(legacy.model_key(), plain.model_key());
}

TEST(WireFormatTest, IslandsAbsentKeepsSinglePopulationDefaults) {
  // Every job searches one population: a spec without the key parses, and
  // no spec serializes it any more.
  const io::JobSpec spec = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1,
    "application": "sobel"
  })"));
  EXPECT_EQ(io::to_json(spec).find("islands"), nullptr);
  EXPECT_EQ(io::to_json(small_spec()).find("islands"), nullptr);
  EXPECT_EQ(canon(io::job_spec_from_json(util::json_parse(canon(spec)))),
            canon(spec));
}

TEST(WireFormatTest, RejectsMalformedIslands) {
  // Unknown sub-keys inside "islands" are rejected just like top-level.
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "islands": {"cout": 2}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "islands": {"count": 1, "migration_epochs": 3}
               })")),
               std::runtime_error);
  // Any count but 1 asks for the removed island model; the error says so.
  try {
    io::job_spec_from_json(util::json_parse(R"({
      "format_version": 1, "application": "sobel",
      "islands": {"count": 4, "migration_interval": 5, "migration_size": 16}
    })"));
    ADD_FAILURE() << "islands.count 4 parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("island model was removed"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "islands": {"count": 0}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "islands": {"count": 2, "migration_interval": 0}
               })")),
               std::runtime_error);
  // A legacy count of 1 still has its migration values validated.
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "islands": {"count": 1, "migration_interval": 0}
               })")),
               std::runtime_error);
}

TEST(WireFormatTest, ModelKeySeesResilienceChanges) {
  const io::JobSpec a = small_spec();
  io::JobSpec b = a;
  b.resilience.max_failures = 2;
  EXPECT_NE(a.model_key(), b.model_key());
  io::JobSpec c = a;
  c.resilience.mission_hours = 1000.0;
  EXPECT_NE(a.model_key(), c.model_key());
  io::JobSpec d = a;
  d.resilience.degraded_spec.max_makespan_us = 123.0;
  EXPECT_NE(a.model_key(), d.model_key());
}

TEST(WireFormatTest, ModelKeyIgnoresSearchHalfAndSeesModelHalf) {
  const io::JobSpec a = small_spec();
  io::JobSpec b = a;
  b.seed = 999;
  b.flow = "fcclr";
  b.name = "other";
  b.ga.generations = 50;
  b.threads = 8;
  EXPECT_EQ(a.model_key(), b.model_key());

  io::JobSpec c = a;
  c.scenario.environment_factor = 50.0;
  EXPECT_NE(a.model_key(), c.model_key());
  io::JobSpec d = a;
  d.spec.max_makespan_us = 1e7;
  EXPECT_NE(a.model_key(), d.model_key());
}

TEST(WireFormatTest, SpooledSpecReplaysBitIdentically) {
  io::JobSpec spec = small_spec();
  spec.flow = "proposed";
  spec.ga.population_size = 10;
  spec.ga.generations = 2;
  spec.heuristic_seed = false;
  spec.spec = {};

  const std::string path = ::testing::TempDir() + "/wire_replay.spec.json";
  io::save_job_spec(path, spec);
  const io::JobSpec replay = io::load_job_spec(path);
  EXPECT_EQ(canon(spec), canon(replay));

  const core::DseMethodology dse_a(
      spec.application, spec.architecture,
      core::make_condition_analyzer(spec.scenario.environment_factor));
  const core::DseMethodology dse_b(
      replay.application, replay.architecture,
      core::make_condition_analyzer(replay.scenario.environment_factor));
  const core::DseOutcome a = dse_a.run_proposed(spec.options());
  const core::DseOutcome b = dse_b.run_proposed(replay.options());
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i], b.front[i]) << "front point " << i;
  }
  EXPECT_EQ(a.evaluations, b.evaluations);
  std::remove(path.c_str());
}

TEST(WireFormatTest, ProgressHookObservesEveryGeneration) {
  const io::JobSpec spec = small_spec();
  const core::DseMethodology dse(
      spec.application, spec.architecture,
      core::make_condition_analyzer(spec.scenario.environment_factor));
  core::DseOptions with_hook = spec.options();
  std::size_t calls = 0;
  std::size_t last_generation = 0;
  with_hook.ga.on_generation =
      [&](const moea::GenerationProgress& progress) {
        ++calls;
        last_generation = progress.generation;
        EXPECT_EQ(progress.generations, with_hook.ga.generations);
        EXPECT_GT(progress.evaluations, 0u);
        EXPECT_GT(progress.front_size, 0u);
      };
  const core::DseOutcome hooked = dse.run_pfclr(with_hook);
  // One call per generation plus the final-front call.
  EXPECT_EQ(calls, with_hook.ga.generations + 1);
  EXPECT_EQ(last_generation, with_hook.ga.generations);

  // The hook is a pure observer: results match the hook-free run bit for bit.
  const core::DseOutcome plain = dse.run_pfclr(spec.options());
  ASSERT_EQ(hooked.front.size(), plain.front.size());
  for (std::size_t i = 0; i < hooked.front.size(); ++i) {
    EXPECT_EQ(hooked.front[i], plain.front[i]);
  }
}

}  // namespace
}  // namespace clrearly
