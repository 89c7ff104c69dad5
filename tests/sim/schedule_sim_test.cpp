#include "sim/schedule_sim.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/sobel.hpp"
#include "app/task_graph.hpp"
#include "core/dse.hpp"
#include "core/sim_bridge.hpp"
#include "platform/architecture.hpp"
#include "platform/interconnect.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::sim {
namespace {

platform::Architecture make_arch(std::size_t num_pes) {
  platform::Architecture arch;
  platform::PeType type;
  type.name = "core";
  type.masking_factor = 0.2;
  type.dvfs = platform::DvfsTable::paper_default();
  const std::size_t t = arch.add_type(type);
  for (std::size_t i = 0; i < num_pes; ++i) arch.add_pe(t);
  return arch;
}

/// Fault-free chain parameters: every trial executes in exactly `exec_us`.
SimTask fixed_task(double exec_us, std::size_t pe, double power_w = 1.0) {
  SimTask task;
  task.chain.exec_time_us = exec_us;
  task.pe = pe;
  task.power_w = power_w;
  return task;
}

/// A task that corrupts on every single trial (p_fault rounds to exactly 1
/// in double precision, and nothing masks, detects or tolerates).
SimTask always_corrupted_task(double exec_us, std::size_t pe) {
  SimTask task = fixed_task(exec_us, pe);
  task.chain.lambda_per_us = 10.0;  // 1 - exp(-10 * exec) == 1.0 exactly
  return task;
}

/// A task whose execution time and outcome are genuinely random: faults are
/// frequent and detected faults roll the interval back.
SimTask stochastic_task(double exec_us, std::size_t pe) {
  SimTask task = fixed_task(exec_us, pe);
  task.chain.lambda_per_us = 0.02;
  task.chain.detection_coverage = 0.9;
  task.chain.tolerance_success = 0.9;
  task.chain.asw_masking = 0.2;
  task.chain.intervals = 2;
  task.chain.detection_time_us = 0.5;
  task.chain.tolerance_time_us = 1.0;
  task.chain.checkpoint_time_us = 0.5;
  return task;
}

/// A nominal run: one variant on the healthy platform.
SimResult simulate_nominal(const app::TaskGraph& graph,
                           const platform::Architecture& arch,
                           const std::vector<SimTask>& tasks,
                           const std::vector<std::size_t>& order,
                           const SimOptions& options) {
  return simulate(graph, arch, {{tasks, order, {}}}, options);
}

TEST(ScheduleSimTest, ValidatesInputs) {
  app::TaskGraph graph;
  graph.add_task(0, "a");
  graph.add_task(0, "b");
  graph.add_edge(0, 1);
  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> tasks{fixed_task(1.0, 0), fixed_task(1.0, 1)};
  const std::vector<std::size_t> order{0, 1};
  SimOptions options;
  options.trials = 10;

  // Task count mismatch.
  EXPECT_THROW(simulate_nominal(graph, arch, {fixed_task(1.0, 0)}, order,
                                options),
               std::invalid_argument);
  // Priority order size mismatch.
  EXPECT_THROW(simulate_nominal(graph, arch, tasks, {0}, options),
               std::invalid_argument);
  // Priority order not a permutation.
  EXPECT_THROW(simulate_nominal(graph, arch, tasks, {0, 0}, options),
               std::invalid_argument);
  EXPECT_THROW(simulate_nominal(graph, arch, tasks, {0, 5}, options),
               std::invalid_argument);
  // PE index out of range.
  EXPECT_THROW(simulate_nominal(graph, arch,
                                {fixed_task(1.0, 0), fixed_task(1.0, 2)},
                                order, options),
               std::invalid_argument);
  // Zero trials.
  SimOptions no_trials;
  no_trials.trials = 0;
  EXPECT_THROW(simulate_nominal(graph, arch, tasks, order, no_trials),
               std::invalid_argument);
  // Negative or non-finite deadlines; 0 disables the deadline.
  for (const double deadline : {-5.0, -0.5, std::nan(""), -std::nan(""),
                                HUGE_VAL, -HUGE_VAL}) {
    SimOptions bad_deadline = options;
    bad_deadline.deadline_us = deadline;
    EXPECT_THROW(simulate_nominal(graph, arch, tasks, order, bad_deadline),
                 std::invalid_argument)
        << deadline;
    EXPECT_THROW(bad_deadline.validate(), std::invalid_argument) << deadline;
  }
  SimOptions no_deadline = options;
  no_deadline.deadline_us = 0.0;
  EXPECT_NO_THROW(simulate_nominal(graph, arch, tasks, order, no_deadline));
  // Bad chain parameters surface through the sampler's validation.
  std::vector<SimTask> bad_chain = tasks;
  bad_chain[0].chain.exec_time_us = -1.0;
  EXPECT_THROW(simulate_nominal(graph, arch, bad_chain, order, options),
               std::invalid_argument);
  // Cyclic graphs are rejected up front.
  app::TaskGraph cyclic;
  cyclic.add_task(0, "a");
  cyclic.add_task(0, "b");
  cyclic.add_edge(0, 1);
  cyclic.add_edge(1, 0);
  EXPECT_THROW(simulate_nominal(cyclic, arch, tasks, order, options),
               std::invalid_argument);
}

TEST(ScheduleSimTest, FaultFreeChainMatchesHandComputation) {
  // t0(10us, PE0) -> t1(20us, PE0) -> t2(5us, PE1), no communication model:
  // a fully deterministic makespan of 35us and energy of 10*2 + 20*1 + 5*4.
  app::TaskGraph graph;
  graph.add_task(0, "t0");
  graph.add_task(0, "t1");
  graph.add_task(0, "t2");
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> tasks{fixed_task(10.0, 0, 2.0),
                                   fixed_task(20.0, 0, 1.0),
                                   fixed_task(5.0, 1, 4.0)};
  SimOptions options;
  options.trials = 64;
  options.seed = 3;

  const SimResult r = simulate_nominal(graph, arch, tasks, {0, 1, 2}, options);
  EXPECT_EQ(r.trials, 64u);
  // A nominal run: every trial runs the one variant.
  EXPECT_EQ(r.available_trials, 64u);
  EXPECT_EQ(r.availability, 1.0);
  EXPECT_EQ(r.variant_trials, std::vector<std::size_t>{64});
  EXPECT_DOUBLE_EQ(r.makespan_mean_us, 35.0);
  EXPECT_DOUBLE_EQ(r.makespan_min_us, 35.0);
  EXPECT_DOUBLE_EQ(r.makespan_max_us, 35.0);
  EXPECT_DOUBLE_EQ(r.makespan_stddev_us, 0.0);
  EXPECT_EQ(r.makespan_ci_us, (util::Interval{35.0, 35.0}));
  EXPECT_DOUBLE_EQ(r.energy_mean_uj, 60.0);
  EXPECT_DOUBLE_EQ(r.energy_stddev_uj, 0.0);
  EXPECT_DOUBLE_EQ(r.error_prob, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_faults, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_rollbacks, 0.0);
  EXPECT_GT(r.trials_per_sec, 0.0);
}

TEST(ScheduleSimTest, PeContentionSerializesCoLocatedTasks) {
  // Fork t0 -> {t1, t2}: on one PE the branches serialize (10+20+5); with t2
  // moved to its own PE they overlap (10 + max(20, 5)).
  app::TaskGraph graph;
  graph.add_task(0, "t0");
  graph.add_task(0, "t1");
  graph.add_task(0, "t2");
  graph.add_edge(0, 1);
  graph.add_edge(0, 2);
  SimOptions options;
  options.trials = 8;

  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> serial{fixed_task(10.0, 0), fixed_task(20.0, 0),
                                    fixed_task(5.0, 0)};
  EXPECT_DOUBLE_EQ(
      simulate_nominal(graph, arch, serial, {0, 1, 2}, options)
          .makespan_mean_us,
      35.0);

  const std::vector<SimTask> spread{fixed_task(10.0, 0), fixed_task(20.0, 0),
                                    fixed_task(5.0, 1)};
  EXPECT_DOUBLE_EQ(
      simulate_nominal(graph, arch, spread, {0, 1, 2}, options)
          .makespan_mean_us,
      30.0);
}

TEST(ScheduleSimTest, PriorityOrderDecidesDispatch) {
  // a(10us) and b(1us) compete for PE0; c(1us, PE1) waits on b. Running a
  // first pushes b and then c past it (10 + 1 + 1 = 12); running b first
  // hides both behind a (1 + 10 = 11).
  app::TaskGraph graph;
  graph.add_task(0, "a");
  graph.add_task(0, "b");
  graph.add_task(0, "c");
  graph.add_edge(1, 2);
  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> tasks{fixed_task(10.0, 0), fixed_task(1.0, 0),
                                   fixed_task(1.0, 1)};
  SimOptions options;
  options.trials = 8;

  EXPECT_DOUBLE_EQ(
      simulate_nominal(graph, arch, tasks, {0, 1, 2}, options)
          .makespan_mean_us,
      12.0);
  EXPECT_DOUBLE_EQ(
      simulate_nominal(graph, arch, tasks, {1, 0, 2}, options)
          .makespan_mean_us,
      11.0);
}

TEST(ScheduleSimTest, CrossPeEdgesPayTheInterconnect) {
  // 4 KB over a 1 KB/us link with 2us setup: +6us when producer and
  // consumer sit on different PEs, free when co-located.
  app::TaskGraph graph;
  graph.add_task(0, "t0");
  graph.add_task(0, "t1");
  graph.add_edge(0, 1, 4.0);
  platform::Architecture arch = make_arch(2);
  platform::Interconnect link;
  link.bandwidth_kb_per_us = 1.0;
  link.latency_us = 2.0;
  arch.set_interconnect(link);
  SimOptions options;
  options.trials = 8;

  const std::vector<SimTask> split{fixed_task(10.0, 0), fixed_task(5.0, 1)};
  EXPECT_DOUBLE_EQ(
      simulate_nominal(graph, arch, split, {0, 1}, options).makespan_mean_us,
      21.0);
  const std::vector<SimTask> local{fixed_task(10.0, 0), fixed_task(5.0, 0)};
  EXPECT_DOUBLE_EQ(
      simulate_nominal(graph, arch, local, {0, 1}, options).makespan_mean_us,
      15.0);
}

TEST(ScheduleSimTest, ErrorProbabilityIsCriticalityWeighted) {
  // Task 0 (criticality 1) corrupts every trial, task 1 (criticality 3)
  // never does: the weighted error probability is exactly zeta_0 = 0.25.
  app::TaskGraph graph;
  graph.add_task(0, "fragile", 1.0);
  graph.add_task(0, "safe", 3.0);
  const platform::Architecture arch = make_arch(1);
  const std::vector<SimTask> tasks{always_corrupted_task(10.0, 0),
                                   fixed_task(10.0, 0)};
  SimOptions options;
  options.trials = 256;

  const SimResult r = simulate_nominal(graph, arch, tasks, {0, 1}, options);
  EXPECT_DOUBLE_EQ(r.error_prob, 0.25);
  EXPECT_TRUE(r.error_ci.contains(0.25));
  // The fragile task takes exactly one (unmasked, untolerated) fault per
  // trial; the safe task none.
  EXPECT_DOUBLE_EQ(r.mean_faults, 1.0);
}

TEST(ScheduleSimTest, DeadlineAccounting) {
  app::TaskGraph graph;
  graph.add_task(0, "t0");
  const platform::Architecture arch = make_arch(1);
  const std::vector<SimTask> tasks{fixed_task(10.0, 0)};
  SimOptions options;
  options.trials = 32;

  // No deadline: accounting disabled.
  SimResult r = simulate_nominal(graph, arch, tasks, {0}, options);
  EXPECT_DOUBLE_EQ(r.deadline_us, 0.0);
  EXPECT_DOUBLE_EQ(r.deadline_miss_rate, 0.0);
  EXPECT_EQ(r.deadline_miss_ci, (util::Interval{0.0, 0.0}));

  // Generous deadline: never missed.
  options.deadline_us = 20.0;
  r = simulate_nominal(graph, arch, tasks, {0}, options);
  EXPECT_DOUBLE_EQ(r.deadline_us, 20.0);
  EXPECT_DOUBLE_EQ(r.deadline_miss_rate, 0.0);
  EXPECT_GT(r.deadline_miss_ci.hi, 0.0);  // Wilson never collapses at p = 0

  // Impossible deadline: always missed.
  options.deadline_us = 5.0;
  r = simulate_nominal(graph, arch, tasks, {0}, options);
  EXPECT_DOUBLE_EQ(r.deadline_miss_rate, 1.0);
  EXPECT_TRUE(r.deadline_miss_ci.contains(1.0));
}

TEST(ScheduleSimTest, SimResultsIdenticalIgnoresThroughputOnly) {
  app::TaskGraph graph;
  graph.add_task(0, "t0");
  const platform::Architecture arch = make_arch(1);
  const std::vector<SimTask> tasks{stochastic_task(50.0, 0)};
  SimOptions options;
  options.trials = 500;
  options.seed = 17;

  const SimResult a = simulate_nominal(graph, arch, tasks, {0}, options);
  SimResult b = a;
  b.trials_per_sec = a.trials_per_sec * 3.0 + 1.0;
  EXPECT_TRUE(sim_results_identical(a, b));
  b.makespan_mean_us += 1e-12;
  EXPECT_FALSE(sim_results_identical(a, b));

  SimOptions reseeded = options;
  reseeded.seed = 18;
  const SimResult c = simulate_nominal(graph, arch, tasks, {0}, reseeded);
  EXPECT_FALSE(sim_results_identical(a, c));
}

TEST(ScheduleSimTest, BitIdenticalAcrossThreadCounts) {
  // The determinism contract: per-trial split streams + per-index outcome
  // slots + serial aggregation make the result independent of the thread
  // count that executed the trial loop.
  app::TaskGraph graph;
  graph.add_task(0, "t0", 2.0);
  graph.add_task(0, "t1", 1.0);
  graph.add_task(0, "t2", 1.0);
  graph.add_task(0, "t3", 3.0);
  graph.add_edge(0, 1, 2.0);
  graph.add_edge(0, 2, 1.0);
  graph.add_edge(1, 3);
  graph.add_edge(2, 3);
  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> tasks{
      stochastic_task(40.0, 0), stochastic_task(60.0, 0),
      stochastic_task(55.0, 1), stochastic_task(30.0, 1)};
  SimOptions options;
  options.trials = 2000;
  options.seed = 23;
  options.deadline_us = 200.0;

  util::set_thread_count(1);
  const SimResult serial =
      simulate_nominal(graph, arch, tasks, {0, 2, 1, 3}, options);
  util::set_thread_count(4);
  const SimResult parallel =
      simulate_nominal(graph, arch, tasks, {0, 2, 1, 3}, options);
  util::set_thread_count(0);

  EXPECT_TRUE(sim_results_identical(serial, parallel));
  EXPECT_GT(serial.makespan_stddev_us, 0.0);  // the scenario is stochastic
  EXPECT_GT(serial.mean_faults, 0.0);
}

// ------------------------------------------------ parent-golden bits
//
// tests/sim/data/parent_sim_golden.json holds every statistical field of one
// nominal and one permanent-fault run as exact hex-floats, recorded before
// the two Monte Carlo drivers were merged. The merged driver must reproduce
// them bit for bit: same stream split, same draw order per trial, same
// accumulation order.

util::JsonValue load_golden() {
  std::ifstream in(std::string(CLREARLY_TEST_DATA_DIR) +
                   "/parent_sim_golden.json");
  std::stringstream text;
  text << in.rdbuf();
  return util::json_parse(text.str());
}

double hex_double(const util::JsonValue& value) {
  const std::string& text = value.as_string();
  const std::size_t skip = text.rfind("0x", 0) == 0 ? 2 : 0;
  double out = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data() + skip, end, out,
                                         std::chars_format::hex);
  EXPECT_TRUE(ec == std::errc{} && ptr == end) << "not a hex-float: " << text;
  return out;
}

core::MappingGenome golden_genome(const util::JsonValue& golden) {
  core::MappingGenome genome;
  for (const util::JsonValue& v : golden.at("order").as_array()) {
    genome.order.push_back(static_cast<std::size_t>(v.as_number()));
  }
  for (const util::JsonValue& v : golden.at("genes").as_array()) {
    genome.genes.push_back(static_cast<std::size_t>(v.as_number()));
  }
  return genome;
}

void expect_bits(const util::JsonValue& golden, const char* key,
                 double actual) {
  EXPECT_EQ(hex_double(golden.at(key)), actual) << key;
}

void expect_bits(const util::JsonValue& golden, const char* key,
                 const util::Interval& actual) {
  const util::JsonArray& bounds = golden.at(key).as_array();
  ASSERT_EQ(bounds.size(), 2u) << key;
  EXPECT_EQ(hex_double(bounds[0]), actual.lo) << key << ".lo";
  EXPECT_EQ(hex_double(bounds[1]), actual.hi) << key << ".hi";
}

core::DseMethodology sobel_methodology() {
  return core::DseMethodology(app::make_sobel_application(),
                              platform::Architecture::paper_default(),
                              reliability::TaskAnalyzer::paper_default());
}

TEST(ScheduleSimTest, NominalRunMatchesParentGoldenBits) {
  const util::JsonValue golden = load_golden().at("nominal");
  const core::DseOptions dse_options;
  const core::ClrMappingProblem problem =
      sobel_methodology().build_fcclr_problem(dse_options);
  SimOptions options;
  options.trials = static_cast<std::size_t>(golden.at("trials").as_number());
  options.seed = static_cast<std::uint64_t>(golden.at("seed").as_number());
  options.deadline_us = hex_double(golden.at("deadline_us"));
  const SimResult r = core::simulate_design_point(
      problem, golden_genome(golden.at("genome")), options);

  const util::JsonValue& want = golden.at("result");
  EXPECT_EQ(r.trials, want.at("trials").as_number());
  expect_bits(want, "makespan_mean_us", r.makespan_mean_us);
  expect_bits(want, "makespan_stddev_us", r.makespan_stddev_us);
  expect_bits(want, "makespan_min_us", r.makespan_min_us);
  expect_bits(want, "makespan_max_us", r.makespan_max_us);
  expect_bits(want, "makespan_ci_us", r.makespan_ci_us);
  expect_bits(want, "error_prob", r.error_prob);
  expect_bits(want, "error_ci", r.error_ci);
  expect_bits(want, "energy_mean_uj", r.energy_mean_uj);
  expect_bits(want, "energy_stddev_uj", r.energy_stddev_uj);
  expect_bits(want, "energy_ci_uj", r.energy_ci_uj);
  expect_bits(want, "deadline_us", r.deadline_us);
  expect_bits(want, "deadline_miss_rate", r.deadline_miss_rate);
  expect_bits(want, "deadline_miss_ci", r.deadline_miss_ci);
  expect_bits(want, "mean_faults", r.mean_faults);
  expect_bits(want, "mean_rollbacks", r.mean_rollbacks);
  // The deadline sits inside the makespan range, so both outcomes occur.
  EXPECT_GT(r.deadline_miss_rate, 0.0);
  EXPECT_LT(r.deadline_miss_rate, 1.0);
  // Fields a nominal run gained in the merge.
  EXPECT_EQ(r.available_trials, r.trials);
  EXPECT_EQ(r.availability, 1.0);
  EXPECT_EQ(r.variant_trials, std::vector<std::size_t>{r.trials});
}

TEST(ScheduleSimTest, FailureRunMatchesParentGoldenBits) {
  const util::JsonValue golden = load_golden().at("failure");
  core::DseOptions dse_options;
  dse_options.resilience.max_failures =
      static_cast<std::size_t>(golden.at("max_failures").as_number());
  const core::ResilientProblem problem =
      sobel_methodology().build_resilient_problem(dse_options);
  const SimResult r = core::simulate_resilient_design_point(
      problem, golden_genome(golden.at("genome")),
      static_cast<std::size_t>(golden.at("trials").as_number()),
      static_cast<std::uint64_t>(golden.at("seed").as_number()));

  const util::JsonValue& want = golden.at("result");
  EXPECT_EQ(r.trials, want.at("trials").as_number());
  EXPECT_EQ(r.available_trials, want.at("available_trials").as_number());
  expect_bits(want, "availability", r.availability);
  expect_bits(want, "availability_ci", r.availability_ci);
  expect_bits(want, "makespan_mean_us", r.makespan_mean_us);
  expect_bits(want, "makespan_stddev_us", r.makespan_stddev_us);
  expect_bits(want, "makespan_ci_us", r.makespan_ci_us);
  expect_bits(want, "error_prob", r.error_prob);
  expect_bits(want, "error_ci", r.error_ci);
  expect_bits(want, "energy_mean_uj", r.energy_mean_uj);
  expect_bits(want, "energy_stddev_uj", r.energy_stddev_uj);
  expect_bits(want, "energy_ci_uj", r.energy_ci_uj);
  std::vector<std::size_t> variant_trials;
  for (const util::JsonValue& v : want.at("variant_trials").as_array()) {
    variant_trials.push_back(static_cast<std::size_t>(v.as_number()));
  }
  EXPECT_EQ(r.variant_trials, variant_trials);
  // Some drawn failure sets are mission loss, so the conditioning matters.
  EXPECT_LT(r.available_trials, r.trials);
  // Fields a failure run gained in the merge, over the available trials.
  EXPECT_LE(r.makespan_min_us, r.makespan_mean_us);
  EXPECT_GE(r.makespan_max_us, r.makespan_mean_us);
  EXPECT_GT(r.mean_faults, 0.0);
  EXPECT_EQ(r.deadline_us, 0.0);
  EXPECT_EQ(r.deadline_miss_ci, (util::Interval{0.0, 0.0}));
}

}  // namespace
}  // namespace clrearly::sim
