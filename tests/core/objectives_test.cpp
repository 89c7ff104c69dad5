// Tests for the weighted Eq. 5 objective vector and many-objective
// (3+ objectives) system-level optimization.
#include <gtest/gtest.h>

#include "app/sobel.hpp"
#include "core/dse.hpp"
#include "core/experiment.hpp"
#include "moea/hypervolume.hpp"
#include "platform/architecture.hpp"
#include "util/log.hpp"

namespace clrearly::core {
namespace {

sched::QosMetrics sample_metrics() {
  sched::QosMetrics m;
  m.makespan_us = 1000.0;
  m.error_prob = 0.05;
  m.functional_rel = 0.95;
  m.mttf_hours = 2.0e4;
  m.energy_uj = 400.0;
  m.peak_power_w = 2.5;
  return m;
}

TEST(SystemObjectivesTest, AllSelectsFiveMetrics) {
  const SystemObjectives obj = SystemObjectives::all();
  EXPECT_EQ(obj.count(), 5u);
  const auto v = obj.extract(sample_metrics());
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], 1000.0);
  EXPECT_EQ(v[1], 0.05);
  EXPECT_EQ(v[2], -2.0e4);
  EXPECT_EQ(v[3], 400.0);
  EXPECT_EQ(v[4], 2.5);
}

TEST(SystemObjectivesTest, WeightsScaleComponents) {
  SystemObjectives obj;
  obj.w_makespan = 0.001;
  obj.w_error_prob = 100.0;
  const auto v = obj.extract(sample_metrics());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 5.0);
}

TEST(SystemObjectivesTest, WeightsDoNotChangeDominance) {
  // Scaling objectives positively preserves Pareto dominance.
  sched::QosMetrics a = sample_metrics();
  sched::QosMetrics b = sample_metrics();
  b.makespan_us = 1200.0;
  b.error_prob = 0.08;

  SystemObjectives plain;
  SystemObjectives weighted;
  weighted.w_makespan = 0.01;
  weighted.w_error_prob = 42.0;
  EXPECT_TRUE(moea::dominates(plain.extract(a), plain.extract(b)));
  EXPECT_TRUE(moea::dominates(weighted.extract(a), weighted.extract(b)));
}

TEST(ManyObjectiveDseTest, TriObjectiveRunProducesValidFront) {
  util::set_log_level(util::LogLevel::Warn);
  // Makespan + error probability + lifetime: exercises the WFG hypervolume
  // path and the 3-D non-dominated sorting at system level.
  SystemObjectives objectives;
  objectives.mttf = true;

  DseOptions options;
  options.objectives = objectives;
  options.ga.population_size = 40;
  options.ga.generations = 15;
  options.seed = 4;

  const DseMethodology dse(app::make_sobel_application(),
                           platform::Architecture::paper_default(),
                           bench_system_analyzer());
  const DseOutcome outcome = dse.run_proposed(options);

  ASSERT_FALSE(outcome.front.empty());
  for (const auto& p : outcome.front) {
    ASSERT_EQ(p.size(), 3u);
    EXPECT_GT(p[0], 0.0);   // makespan
    EXPECT_GE(p[1], 0.0);   // error probability
    EXPECT_LT(p[2], 0.0);   // negated MTTF
  }
  // Mutually non-dominated in 3-D.
  for (const auto& a : outcome.front) {
    for (const auto& b : outcome.front) {
      if (&a == &b) continue;
      EXPECT_FALSE(moea::dominates(a, b));
    }
  }
  // 3-D hypervolume computes without issue.
  const auto ref = moea::common_reference({outcome.front});
  EXPECT_GT(moea::hypervolume(outcome.front, ref), 0.0);
}

TEST(ManyObjectiveDseTest, LifetimeObjectiveShiftsFrontTowardLongLife) {
  util::set_log_level(util::LogLevel::Warn);
  const DseMethodology dse(app::make_sobel_application(),
                           platform::Architecture::paper_default(),
                           bench_system_analyzer());

  DseOptions bi = DseOptions{};
  bi.ga.population_size = 40;
  bi.ga.generations = 15;
  bi.seed = 5;

  DseOptions tri = bi;
  tri.objectives.mttf = true;

  const DseOutcome front_bi = dse.run_proposed(bi);
  const DseOutcome front_tri = dse.run_proposed(tri);
  ASSERT_FALSE(front_bi.front.empty());
  ASSERT_FALSE(front_tri.front.empty());

  // Evaluate the realized MTTF of both fronts through a common problem.
  const ClrMappingProblem problem(app::make_sobel_application(),
                                  platform::Architecture::paper_default(),
                                  bench_system_analyzer(), SystemObjectives{},
                                  sched::QosSpec{});
  auto best_mttf = [&](const DseOutcome& outcome) {
    double best = 0.0;
    for (const auto& genome : outcome.front_genomes) {
      best = std::max(best, problem.qos(genome).mttf_hours);
    }
    return best;
  };
  EXPECT_GE(best_mttf(front_tri), best_mttf(front_bi));
}

}  // namespace
}  // namespace clrearly::core
