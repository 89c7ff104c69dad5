#include "app/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace clrearly::app {
namespace {

TaskGraph diamond() {
  // 0 -> {1, 2} -> 3
  TaskGraph g;
  g.add_task(0, "a");
  g.add_task(1, "b");
  g.add_task(1, "c");
  g.add_task(2, "d");
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(TaskGraphTest, AddTaskAssignsDenseIds) {
  TaskGraph g;
  EXPECT_EQ(g.add_task(0, "t0"), 0u);
  EXPECT_EQ(g.add_task(1, "t1"), 1u);
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_EQ(g.task(1).name, "t1");
  EXPECT_EQ(g.task(1).type, 1u);
}

TEST(TaskGraphTest, NumTypesIsMaxPlusOne) {
  TaskGraph g;
  g.add_task(0, "a");
  g.add_task(5, "b");
  EXPECT_EQ(g.num_types(), 6u);
}

TEST(TaskGraphTest, NegativeCriticalityRejected) {
  TaskGraph g;
  EXPECT_THROW(g.add_task(0, "t", -1.0), std::invalid_argument);
}

TEST(TaskGraphTest, EdgeValidation) {
  TaskGraph g;
  g.add_task(0, "a");
  g.add_task(0, "b");
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  g.add_edge(0, 1);
  g.add_edge(0, 1);  // duplicate silently ignored
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(TaskGraphTest, AdjacencyTracksEdges) {
  const TaskGraph g = diamond();
  EXPECT_EQ(g.successors(0).size(), 2u);
  EXPECT_EQ(g.predecessors(3).size(), 2u);
  EXPECT_TRUE(g.predecessors(0).empty());
  EXPECT_TRUE(g.successors(3).empty());
}

TEST(TaskGraphTest, SourcesAndSinks) {
  const TaskGraph g = diamond();
  EXPECT_EQ(g.sources(), std::vector<std::size_t>{0});
  EXPECT_EQ(g.sinks(), std::vector<std::size_t>{3});
}

TEST(TaskGraphTest, TopologicalOrderRespectsEdges) {
  const TaskGraph g = diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const Edge& e : g.edges()) {
    EXPECT_LT(pos[e.src], pos[e.dst]);
  }
}

TEST(TaskGraphTest, CycleDetected) {
  TaskGraph g;
  g.add_task(0, "a");
  g.add_task(0, "b");
  g.add_task(0, "c");
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_THROW(g.topological_order(), std::invalid_argument);
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(TaskGraphTest, CriticalPathLength) {
  EXPECT_EQ(diamond().critical_path_length(), 3u);
  TaskGraph chain;
  chain.add_task(0, "a");
  chain.add_task(0, "b");
  chain.add_task(0, "c");
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  EXPECT_EQ(chain.critical_path_length(), 3u);
  TaskGraph isolated;
  isolated.add_task(0, "only");
  EXPECT_EQ(isolated.critical_path_length(), 1u);
}

TEST(TaskGraphTest, NormalizedCriticalitySumsToOne) {
  TaskGraph g;
  g.add_task(0, "a", 1.0);
  g.add_task(0, "b", 3.0);
  const auto zeta = g.normalized_criticality();
  EXPECT_DOUBLE_EQ(zeta[0], 0.25);
  EXPECT_DOUBLE_EQ(zeta[1], 0.75);
}

TEST(TaskGraphTest, AllZeroCriticalityFallsBackToUniform) {
  TaskGraph g;
  g.add_task(0, "a", 0.0);
  g.add_task(0, "b", 0.0);
  const auto zeta = g.normalized_criticality();
  EXPECT_DOUBLE_EQ(zeta[0], 0.5);
  EXPECT_DOUBLE_EQ(zeta[1], 0.5);
}

TEST(TaskGraphTest, EmptyGraphFailsValidation) {
  TaskGraph g;
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(TaskGraphTest, AccessorsThrowOutOfRange) {
  const TaskGraph g = diamond();
  EXPECT_THROW(g.task(10), std::out_of_range);
  EXPECT_THROW(g.predecessors(10), std::out_of_range);
  EXPECT_THROW(g.successors(10), std::out_of_range);
}

TEST(TaskGraphTest, DuplicateEdgeKeepsTheFirstDataVolume) {
  TaskGraph g;
  g.add_task(0, "a");
  g.add_task(0, "b");
  g.add_edge(0, 1, 4.0);
  g.add_edge(0, 1, 9.0);
  EXPECT_EQ(g.num_edges(), 1u);
  ASSERT_NE(g.find_edge(0, 1), nullptr);
  EXPECT_EQ(g.find_edge(0, 1)->data_kb, 4.0);
  EXPECT_EQ(g.successors(0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(g.predecessors(1), (std::vector<std::size_t>{0}));
}

TEST(TaskGraphTest, FindEdgeOnAManyEdgeGraph) {
  // Every pair i < j with (i + j) % 3 != 0, added from the highest source
  // down so that edges() interleaves sources; duplicates re-added with a
  // different volume are ignored.
  constexpr std::size_t kTasks = 60;
  TaskGraph g;
  for (std::size_t t = 0; t < kTasks; ++t) g.add_task(0, "t");
  std::vector<Edge> added;
  for (std::size_t j = kTasks; j-- > 1;) {
    for (std::size_t i = 0; i < j; ++i) {
      if ((i + j) % 3 == 0) continue;
      const double kb = static_cast<double>(i * kTasks + j);
      g.add_edge(i, j, kb);
      added.push_back(Edge{i, j, kb});
      if (i % 7 == 0) g.add_edge(i, j, 1.0e6);  // duplicate
    }
  }
  EXPECT_EQ(g.edges(), added);  // insertion order, first volume kept
  for (std::size_t i = 0; i < kTasks; ++i) {
    for (std::size_t j = 0; j < kTasks; ++j) {
      const Edge* edge = g.find_edge(i, j);
      if (i < j && (i + j) % 3 != 0) {
        ASSERT_NE(edge, nullptr) << i << "->" << j;
        EXPECT_EQ(*edge, (Edge{i, j, static_cast<double>(i * kTasks + j)}));
      } else {
        EXPECT_EQ(edge, nullptr) << i << "->" << j;
      }
    }
  }
  EXPECT_EQ(g.find_edge(kTasks, 0), nullptr);  // unknown source
}

// --- Application -------------------------------------------------------------

reliability::BaseImpl tiny_impl() {
  reliability::BaseImpl impl;
  impl.name = "i";
  impl.base_exec_time_us = 10.0;
  impl.base_power_w = 0.1;
  return impl;
}

TEST(ApplicationTest, ValidApplicationPasses) {
  Application a;
  a.graph = diamond();
  a.impls.assign(3, {tiny_impl()});
  a.period_us = 1e4;
  EXPECT_NO_THROW(a.validate());
}

TEST(ApplicationTest, MissingImplSetRejected) {
  Application a;
  a.graph = diamond();        // uses types 0..2
  a.impls.assign(2, {tiny_impl()});
  EXPECT_THROW(a.validate(), std::invalid_argument);
}

TEST(ApplicationTest, EmptyImplSetRejected) {
  Application a;
  a.graph = diamond();
  a.impls.assign(3, {tiny_impl()});
  a.impls[1].clear();
  EXPECT_THROW(a.validate(), std::invalid_argument);
}

TEST(ApplicationTest, NonPositivePeriodRejected) {
  Application a;
  a.graph = diamond();
  a.impls.assign(3, {tiny_impl()});
  a.period_us = 0.0;
  EXPECT_THROW(a.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace clrearly::app
