// Differential test: sim::simulate (block-claimed trials, per-block
// workspace, per-PE rank heaps, same-time arrivals straight to the ready
// heap) against its former version in reference_simulator.hpp, bit for bit.
// The random cases tie completion timestamps on purpose (tasks of 1e-300 us,
// small integer execution times, zero-volume transfers), mix the
// interconnect model on and off, unequal checkpoint intervals, fault-free
// and always-faulting tasks, and nominal and multi-variant failure runs, at
// trial counts on and around the block size and at several thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "app/task_graph.hpp"
#include "platform/architecture.hpp"
#include "platform/interconnect.hpp"
#include "reference_simulator.hpp"
#include "sim/schedule_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::sim {
namespace {

constexpr std::size_t kTrialCounts[] = {1, 63, 64, 65, 1000};
constexpr std::size_t kThreadCounts[] = {1, 3, 4};

struct Case {
  app::TaskGraph graph;
  platform::Architecture arch;
  std::vector<SimVariant> variants;
  SimOptions options;
};

platform::Architecture make_arch(std::size_t num_pes, bool interconnect) {
  platform::Architecture arch;
  platform::PeType type;
  type.name = "core";
  type.dvfs = platform::DvfsTable::paper_default();
  const std::size_t t = arch.add_type(type);
  for (std::size_t i = 0; i < num_pes; ++i) arch.add_pe(t);
  if (interconnect) arch.set_interconnect(platform::Interconnect{1.0, 2.0});
  return arch;
}

/// A positive execution time so small that, once the clock is past 0, a
/// task finishes at the timestamp it started (now + kTinyUs == now): the
/// closest a validated chain comes to a zero-time task.
constexpr double kTinyUs = 1e-300;

/// Random fault-process parameters. About a third of the tasks are fault
/// free (every trial takes exactly the nominal time, so integer times tie),
/// some fault on every interval (lambda so high that p_fault rounds to 1),
/// and a sixth take no measurable time.
reliability::ClrChainParams random_chain(util::Rng& rng, bool integer_times) {
  reliability::ClrChainParams c;
  c.exec_time_us = kTinyUs;
  if (!rng.bernoulli(1.0 / 6.0)) {
    c.exec_time_us = integer_times ? static_cast<double>(rng.uniform_int(1, 6))
                                   : rng.uniform(0.5, 40.0);
  }
  const double kind = rng.uniform();
  if (kind < 0.35) {
    c.lambda_per_us = 0.0;
  } else if (kind < 0.45) {
    c.lambda_per_us = 50.0;
  } else {
    c.lambda_per_us = rng.uniform(0.0, 0.05);
  }
  c.hw_masking = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 0.5);
  c.implicit_ssw_masking = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 0.5);
  c.detection_coverage = rng.uniform(0.0, 1.0);
  c.tolerance_success = rng.uniform(0.0, 0.95);
  c.asw_masking = rng.uniform(0.0, 1.0);
  c.intervals = 1 + rng.index(4);
  if (c.intervals > 1 && rng.bernoulli(0.5)) {
    double sum = 0.0;
    for (std::size_t i = 0; i < c.intervals; ++i) {
      c.interval_fractions.push_back(rng.uniform(0.1, 1.0));
      sum += c.interval_fractions.back();
    }
    for (double& f : c.interval_fractions) f /= sum;
  }
  if (rng.bernoulli(0.5)) {
    c.detection_time_us = static_cast<double>(rng.index(2));
    c.tolerance_time_us = static_cast<double>(rng.index(3));
    c.checkpoint_time_us = static_cast<double>(rng.index(2));
  }
  c.checkpoint_error_prob = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 0.01);
  return c;
}

/// A random DAG over `n` tasks whose ids are not in topological order, with
/// data volumes of 0 to 3 KB (a zero volume costs no transfer time even
/// across PEs).
void random_graph(util::Rng& rng, std::size_t n, app::TaskGraph& graph) {
  for (std::size_t t = 0; t < n; ++t) {
    graph.add_task(0, "t" + std::to_string(t), rng.uniform(0.5, 2.0));
  }
  std::vector<std::size_t> topo(n);
  for (std::size_t i = 0; i < n; ++i) topo[i] = i;
  rng.shuffle(topo);
  const double density =
      std::min(1.0, rng.uniform(0.5, 4.0) / static_cast<double>(n));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (rng.bernoulli(density)) {
        graph.add_edge(topo[a], topo[b], static_cast<double>(rng.index(4)));
      }
    }
  }
}

/// One variant: every task on a random PE outside `failed`, random chains
/// and a random priority order.
SimVariant random_variant(util::Rng& rng, std::size_t n, std::size_t num_pes,
                          const std::vector<char>& failed) {
  std::vector<std::size_t> alive;
  for (std::size_t p = 0; p < num_pes; ++p) {
    if (failed.empty() || !failed[p]) alive.push_back(p);
  }
  const bool integer_times = rng.bernoulli(0.5);
  SimVariant variant;
  variant.failed = failed;
  variant.tasks.resize(n);
  for (SimTask& task : variant.tasks) {
    task.chain = random_chain(rng, integer_times);
    task.pe = alive[rng.index(alive.size())];
    task.power_w = rng.uniform(0.1, 2.0);
  }
  variant.priority_order.resize(n);
  for (std::size_t i = 0; i < n; ++i) variant.priority_order[i] = i;
  rng.shuffle(variant.priority_order);
  return variant;
}

Case random_case(util::Rng& rng, std::size_t n, bool interconnect,
                 bool failure_run, std::size_t trials) {
  Case c;
  const std::size_t num_pes = 1 + rng.index(5);
  c.arch = make_arch(num_pes, interconnect);
  random_graph(rng, n, c.graph);
  c.variants.push_back(random_variant(rng, n, num_pes, {}));
  c.options.trials = trials;
  c.options.seed = rng.next_u64();
  if (rng.bernoulli(0.5)) c.options.deadline_us = rng.uniform(1.0, 100.0);
  if (failure_run) {
    for (std::size_t p = 0; p < num_pes; ++p) {
      c.options.pe_failure_prob.push_back(rng.uniform(0.0, 0.4));
    }
    // Repairs for every single-PE loss and one double loss, each with its
    // own mapping, chains and order; other failure sets are unavailable.
    for (std::size_t p = 0; p + 1 < num_pes; ++p) {
      std::vector<char> failed(num_pes, 0);
      failed[p] = 1;
      c.variants.push_back(random_variant(rng, n, num_pes, failed));
    }
    if (num_pes >= 3) {
      std::vector<char> failed(num_pes, 0);
      failed[0] = failed[num_pes - 1] = 1;
      c.variants.push_back(random_variant(rng, n, num_pes, failed));
    }
  }
  return c;
}

/// sim::simulate at every thread count in kThreadCounts against one oracle
/// run.
void check_against_oracle(const Case& c) {
  const SimResult want =
      reference::simulate(c.graph, c.arch, c.variants, c.options);
  for (const std::size_t threads : kThreadCounts) {
    util::set_thread_count(threads);
    const SimResult got = simulate(c.graph, c.arch, c.variants, c.options);
    EXPECT_TRUE(sim_results_identical(got, want))
        << "threads " << threads << ": makespan " << got.makespan_mean_us
        << " vs " << want.makespan_mean_us << ", error " << got.error_prob
        << " vs " << want.error_prob << ", available "
        << got.available_trials << " vs " << want.available_trials;
  }
  util::set_thread_count(0);
}

void run_random_cases(bool failure_run, std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t k = 0; k < 100; ++k) {
    const std::size_t trials = kTrialCounts[k % std::size(kTrialCounts)];
    // Half the cases small (dense ties), half up to 300 tasks; the largest
    // graphs get the smaller trial counts.
    std::size_t n = 1 + (k % 2 == 0 ? rng.index(12) : rng.index(300));
    if (trials == 1000) n = std::min<std::size_t>(n, 60);
    const bool interconnect = k % 4 >= 2;
    SCOPED_TRACE(::testing::Message()
                 << "case " << k << ", n " << n << ", trials " << trials
                 << ", interconnect " << interconnect);
    util::Rng case_rng(rng.next_u64());
    check_against_oracle(
        random_case(case_rng, n, interconnect, failure_run, trials));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ScheduleSimDifferentialTest, NominalRunsMatchTheOracleBitForBit) {
  run_random_cases(false, 20261021);
}

TEST(ScheduleSimDifferentialTest, FailureRunsMatchTheOracleBitForBit) {
  run_random_cases(true, 20261022);
}

TEST(ScheduleSimDifferentialTest, RunawayTasksMatchTheOracle) {
  // Every interval of task 1 faults and rolls back forever, so the sampler
  // gives up after its retry cap and reports the run corrupted; the
  // interval it abandons skips the checkpoint.
  Case c;
  c.arch = make_arch(2, true);
  for (std::size_t t = 0; t < 3; ++t) c.graph.add_task(0, "t");
  c.graph.add_edge(0, 1, 1.0);
  c.graph.add_edge(0, 2, 0.0);
  SimVariant variant;
  variant.tasks.resize(3);
  for (std::size_t t = 0; t < 3; ++t) {
    variant.tasks[t].chain.exec_time_us = 4.0;
    variant.tasks[t].pe = t % 2;
  }
  reliability::ClrChainParams& runaway = variant.tasks[1].chain;
  runaway.lambda_per_us = 50.0;
  runaway.detection_coverage = 1.0;
  runaway.tolerance_success = 1.0;
  runaway.intervals = 2;
  runaway.checkpoint_time_us = 1.0;
  variant.priority_order = {0, 2, 1};
  c.variants.push_back(variant);
  c.options.trials = 3;
  c.options.seed = 5;
  check_against_oracle(c);
  EXPECT_DOUBLE_EQ(simulate(c.graph, c.arch, c.variants, c.options).error_prob,
                   1.0 / 3.0);
}

}  // namespace
}  // namespace clrearly::sim
