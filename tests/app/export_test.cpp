// Tests for the DOT export and the schedule Gantt chart.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "app/dot.hpp"
#include "app/sobel.hpp"
#include "sched/timeline.hpp"

namespace clrearly {
namespace {

TEST(DotExportTest, ContainsAllNodesAndEdges) {
  const app::Application sobel = app::make_sobel_application();
  std::ostringstream oss;
  app::write_dot(oss, sobel.graph, "sobel");
  const std::string dot = oss.str();
  EXPECT_NE(dot.find("digraph \"sobel\""), std::string::npos);
  for (const app::Task& task : sobel.graph.tasks()) {
    EXPECT_NE(dot.find(task.name), std::string::npos) << task.name;
  }
  // Five edges with arrows and the data label.
  std::size_t arrows = 0;
  for (std::size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 5u);
  EXPECT_NE(dot.find("75 KB"), std::string::npos);
}

TEST(DotExportTest, EscapesQuotesInNames) {
  app::TaskGraph g;
  g.add_task(0, "task \"quoted\"");
  std::ostringstream oss;
  app::write_dot(oss, g);
  const std::string dot = oss.str();
  EXPECT_NE(dot.find("task \\\"quoted\\\""), std::string::npos);
}

TEST(DotExportTest, TypeColorsCycle) {
  app::TaskGraph g;
  for (std::size_t i = 0; i < 10; ++i) {
    g.add_task(i, "t" + std::to_string(i));
  }
  std::ostringstream oss;
  app::write_dot(oss, g);
  const std::string dot = oss.str();
  // Types 0 and 8 share a palette slot (8-entry palette).
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
}

sched::Schedule sobel_schedule(const app::Application& sobel) {
  std::vector<sched::TaskAssignment> asg(5);
  for (std::size_t t = 0; t < 5; ++t) {
    asg[t] = {t % 2, 100.0 + 10.0 * static_cast<double>(t), 0.5};
  }
  return sched::list_schedule(sobel.graph, asg, {0, 1, 2, 3, 4}, 2);
}

TEST(GanttChartTest, RendersOneLanePerPe) {
  const app::Application sobel = app::make_sobel_application();
  const sched::Schedule schedule = sobel_schedule(sobel);
  const std::string chart = sched::gantt_chart(schedule, sobel.graph, 3, 40);

  EXPECT_NE(chart.find("PE0 |"), std::string::npos);
  EXPECT_NE(chart.find("PE1 |"), std::string::npos);
  EXPECT_NE(chart.find("PE2 |"), std::string::npos);
  // Legend names every task.
  for (const app::Task& task : sobel.graph.tasks()) {
    EXPECT_NE(chart.find(task.name), std::string::npos);
  }
  // The makespan header is present.
  EXPECT_NE(chart.find("makespan"), std::string::npos);
}

TEST(GanttChartTest, MarksReflectOccupancy) {
  app::TaskGraph g;
  g.add_task(0, "only");
  app::Application single;
  single.graph = g;

  sched::Schedule schedule;
  schedule.tasks = {{0.0, 100.0, 0}};
  schedule.makespan_us = 100.0;
  schedule.pe_busy_us = {100.0};
  const std::string chart = sched::gantt_chart(schedule, g, 1, 20);
  // The single task fills (nearly) the whole lane with 'A'.
  std::size_t a_count = 0;
  for (char c : chart) {
    if (c == 'A' && a_count < 100) ++a_count;
  }
  EXPECT_GE(a_count, 18u);  // 19 slots + the legend occurrence
}

TEST(GanttChartTest, Validation) {
  const app::Application sobel = app::make_sobel_application();
  const sched::Schedule schedule = sobel_schedule(sobel);
  EXPECT_THROW(sched::gantt_chart(schedule, sobel.graph, 2, 5),
               std::invalid_argument);
  sched::Schedule empty;
  EXPECT_THROW(sched::gantt_chart(empty, sobel.graph, 2, 40),
               std::invalid_argument);
}

}  // namespace
}  // namespace clrearly
