// Differential test: the heap list scheduler and the per-PE blocker lookup of
// estimate_qos against the O(T^2) oracle in reference_scheduler.hpp, bit for
// bit, on random DAGs with zero-length tasks, tied end times and the
// interconnect model on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "platform/architecture.hpp"
#include "reference_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/qos.hpp"
#include "util/rng.hpp"

namespace clrearly::sched {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

struct Case {
  app::Application application;
  platform::Architecture architecture = platform::Architecture::paper_default();
  std::vector<TaskDecision> decisions;
  std::vector<std::size_t> order;
};

/// A random DAG over `n` tasks whose ids are not in topological order. Small
/// integer execution times and data volumes (a sixth of the tasks
/// zero-length) make equal end times on one PE common.
Case random_case(util::Rng& rng, std::size_t n, bool interconnect) {
  Case c;
  app::TaskGraph& graph = c.application.graph;
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
      if (!rng.bernoulli(density)) continue;
      graph.add_edge(topo[a], topo[b], static_cast<double>(rng.index(4)));
      // A duplicate is ignored; its data volume must never be used.
      if (rng.bernoulli(0.1)) graph.add_edge(topo[a], topo[b], 100.0);
    }
  }
  reliability::BaseImpl impl;
  impl.name = "i";
  impl.base_exec_time_us = 1.0;
  impl.base_power_w = 0.1;
  c.application.impls = {{impl}};

  if (interconnect) {
    c.architecture.set_interconnect(platform::Interconnect{1.0, 2.0});
  }
  const std::size_t used_pes = 1 + rng.index(c.architecture.num_pes());
  const bool integer_times = rng.bernoulli(0.5);
  c.decisions.resize(n);
  for (TaskDecision& d : c.decisions) {
    d.pe = rng.index(used_pes);
    double time = 0.0;
    if (!rng.bernoulli(1.0 / 6.0)) {
      time = integer_times ? static_cast<double>(rng.uniform_int(1, 5))
                           : rng.uniform(0.5, 50.0);
    }
    d.metrics.min_exec_time_us = time;
    d.metrics.avg_exec_time_us = time;
    d.metrics.exec_time_stddev_us = rng.uniform(0.0, 3.0);
    d.metrics.avg_power_w = rng.uniform(0.1, 1.0);
    d.metrics.error_prob = rng.uniform(0.0, 0.1);
    d.metrics.mttf_hours = rng.uniform(1.0e4, 1.0e5);
  }
  // estimate_qos rejects a design in which no task does any work.
  c.decisions[0].metrics.avg_exec_time_us =
      std::max(c.decisions[0].metrics.avg_exec_time_us, 1.0);
  c.order = topo;
  rng.shuffle(c.order);
  return c;
}

std::vector<TaskAssignment> assignments_of(const Case& c) {
  std::vector<TaskAssignment> out(c.decisions.size());
  for (std::size_t t = 0; t < out.size(); ++t) {
    out[t] = {c.decisions[t].pe, c.decisions[t].metrics.avg_exec_time_us,
              c.decisions[t].metrics.avg_power_w};
  }
  return out;
}

void expect_same_schedule(const Schedule& got, const Schedule& want) {
  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t t = 0; t < got.tasks.size(); ++t) {
    EXPECT_EQ(bits(got.tasks[t].start_us), bits(want.tasks[t].start_us)) << t;
    EXPECT_EQ(bits(got.tasks[t].end_us), bits(want.tasks[t].end_us)) << t;
    EXPECT_EQ(got.tasks[t].pe, want.tasks[t].pe) << t;
  }
  EXPECT_EQ(bits(got.makespan_us), bits(want.makespan_us));
  ASSERT_EQ(got.pe_busy_us.size(), want.pe_busy_us.size());
  for (std::size_t p = 0; p < got.pe_busy_us.size(); ++p) {
    EXPECT_EQ(bits(got.pe_busy_us[p]), bits(want.pe_busy_us[p])) << p;
  }
}

/// pe_tasks holds exactly each PE's tasks, in an order where every task
/// starts no earlier than its predecessor on the PE ends.
void expect_pe_order_consistent(const Schedule& s) {
  const std::size_t num_pes = s.pe_busy_us.size();
  ASSERT_EQ(s.pe_offsets.size(), num_pes + 1);
  ASSERT_EQ(s.pe_tasks.size(), s.tasks.size());
  EXPECT_EQ(s.pe_offsets.front(), 0u);
  EXPECT_EQ(s.pe_offsets.back(), s.tasks.size());
  std::vector<bool> seen(s.tasks.size(), false);
  for (std::size_t p = 0; p < num_pes; ++p) {
    for (std::size_t i = s.pe_offsets[p]; i < s.pe_offsets[p + 1]; ++i) {
      const std::size_t t = s.pe_tasks[i];
      ASSERT_LT(t, s.tasks.size());
      EXPECT_FALSE(seen[t]);
      seen[t] = true;
      EXPECT_EQ(s.tasks[t].pe, p);
      if (i > s.pe_offsets[p]) {
        const ScheduledTask& prev = s.tasks[s.pe_tasks[i - 1]];
        EXPECT_GE(s.tasks[t].start_us, prev.end_us);
        EXPECT_GE(s.tasks[t].end_us, prev.end_us);
      }
    }
  }
}

void check_against_oracle(const Case& c) {
  const std::vector<TaskAssignment> assignments = assignments_of(c);
  const std::size_t num_pes = c.architecture.num_pes();
  const platform::Interconnect& icn = c.architecture.interconnect();

  const Schedule want = reference::list_schedule(
      c.application.graph, assignments, c.order, num_pes, icn);
  const Schedule got = list_schedule(c.application.graph, assignments,
                                     c.order, num_pes, icn);
  expect_same_schedule(got, want);
  expect_pe_order_consistent(got);

  Schedule realized;
  const QosMetrics qos = estimate_qos(c.application, c.architecture,
                                      c.decisions, c.order, &realized);
  expect_same_schedule(realized, want);
  // The schedule-dependent QoS fields; the others never read the schedule.
  EXPECT_EQ(bits(qos.makespan_us), bits(want.makespan_us));
  EXPECT_EQ(bits(qos.peak_power_w), bits(want.peak_power(assignments)));
  EXPECT_EQ(bits(qos.makespan_stddev_us),
            bits(reference::makespan_stddev_us(c.application.graph, icn,
                                               c.decisions, want)));
}

TEST(ScheduleDifferentialTest, RandomDagsMatchTheOracleBitForBit) {
  util::Rng rng(20261019);
  for (int trial = 0; trial < 300; ++trial) {
    // Half the cases small (dense ties), half up to 300 tasks.
    const std::size_t n =
        1 + (trial % 2 == 0 ? rng.index(12) : rng.index(300));
    for (const bool interconnect : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << ", n " << n
                                        << ", interconnect " << interconnect);
      util::Rng case_rng(rng.next_u64());
      check_against_oracle(random_case(case_rng, n, interconnect));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(ScheduleDifferentialTest, PeBlockerIsTheLowestIdAmongTiedEnds) {
  // One PE running 1 (0..5), then the zero-length 2 and 0 (both 5..5), then
  // 3 (5..8). From 3 the tied candidates ending at 5 are {1, 2, 0}: the
  // lowest id, 0, blocks it, not 1 or 2 that ran earlier. From 0 the
  // candidates are {1, 2}: 1 blocks it, and 1 started at 0.
  Case c;
  for (std::size_t t = 0; t < 4; ++t) {
    c.application.graph.add_task(0, "t" + std::to_string(t));
  }
  reliability::BaseImpl impl;
  impl.name = "i";
  c.application.impls = {{impl}};
  const double times[] = {0.0, 5.0, 0.0, 3.0};
  const double stddevs[] = {1.0, 2.0, 4.0, 8.0};
  c.decisions.resize(4);
  for (std::size_t t = 0; t < 4; ++t) {
    c.decisions[t].pe = 0;
    c.decisions[t].metrics.avg_exec_time_us = times[t];
    c.decisions[t].metrics.exec_time_stddev_us = stddevs[t];
    c.decisions[t].metrics.mttf_hours = 1.0e5;
  }
  c.order = {1, 2, 0, 3};
  check_against_oracle(c);
  const QosMetrics qos =
      estimate_qos(c.application, c.architecture, c.decisions, c.order);
  EXPECT_EQ(qos.makespan_us, 8.0);
  EXPECT_EQ(qos.makespan_stddev_us, std::sqrt(64.0 + 1.0 + 4.0));
}

TEST(ScheduleDifferentialTest, MalformedInputsStillThrow) {
  app::TaskGraph chain;
  for (std::size_t t = 0; t < 3; ++t) chain.add_task(0, "t");
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  app::TaskGraph cyclic = chain;
  cyclic.add_edge(2, 1);
  const std::vector<TaskAssignment> ok{{0, 1.0, 1.0}, {1, 2.0, 1.0},
                                       {0, 0.0, 1.0}};
  const std::vector<TaskAssignment> bad_pe{{0, 1.0, 1.0}, {2, 2.0, 1.0},
                                           {0, 0.0, 1.0}};
  const std::vector<TaskAssignment> negative{{0, 1.0, 1.0}, {1, -2.0, 1.0},
                                             {0, 0.0, 1.0}};
  struct Bad {
    const app::TaskGraph* graph;
    const std::vector<TaskAssignment>* assignments;
    std::vector<std::size_t> order;
  };
  const std::vector<Bad> cases{
      {&cyclic, &ok, {0, 1, 2}},     // cycle 1 -> 2 -> 1
      {&chain, &ok, {0, 1, 1}},      // repeated id
      {&chain, &ok, {0, 1, 3}},      // id out of range
      {&chain, &ok, {0, 1}},         // too short
      {&chain, &bad_pe, {0, 1, 2}},  // PE 2 of 2
      {&chain, &negative, {0, 1, 2}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    const Bad& b = cases[i];
    EXPECT_THROW(reference::list_schedule(*b.graph, *b.assignments, b.order, 2),
                 std::invalid_argument);
    EXPECT_THROW(list_schedule(*b.graph, *b.assignments, b.order, 2),
                 std::invalid_argument);
  }
  EXPECT_THROW(list_schedule(chain, ok, {0, 1, 2}, 0), std::invalid_argument);
  EXPECT_NO_THROW(list_schedule(chain, ok, {2, 0, 1}, 2));
}

}  // namespace
}  // namespace clrearly::sched
