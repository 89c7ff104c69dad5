// Property tests for generate_tgff_graph at the bench_scale sizes
// (500/1000/2000 tasks, docs/SCALING.md): structural invariants, exact
// sizing, and the determinism/stream-independence contract that the scaling
// benchmark leans on.
#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "app/tgff.hpp"
#include "util/rng.hpp"

namespace clrearly::app {
namespace {

class TgffScalePropertyTest : public ::testing::TestWithParam<std::size_t> {};

TgffOptions scale_options(std::size_t num_tasks) {
  TgffOptions o;
  o.num_tasks = num_tasks;
  return o;
}

TEST_P(TgffScalePropertyTest, ExactTaskCountAndValidDag) {
  const TgffOptions o = scale_options(GetParam());
  util::Rng rng(GetParam());
  const TaskGraph g = generate_tgff_graph(o, rng);
  EXPECT_EQ(g.num_tasks(), o.num_tasks);
  EXPECT_NO_THROW(g.validate());  // includes acyclicity
}

TEST_P(TgffScalePropertyTest, SingleSourceAndWeaklyConnected) {
  const TgffOptions o = scale_options(GetParam());
  util::Rng rng(GetParam());
  const TaskGraph g = generate_tgff_graph(o, rng);

  std::size_t parentless = 0;
  for (std::size_t t = 0; t < g.num_tasks(); ++t) {
    if (g.predecessors(t).empty()) ++parentless;
  }
  EXPECT_EQ(parentless, 1u);

  // Undirected BFS from the root must reach every task.
  std::vector<bool> seen(g.num_tasks(), false);
  std::queue<std::size_t> frontier;
  frontier.push(0);
  seen[0] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const std::size_t t = frontier.front();
    frontier.pop();
    for (const auto& neighbors : {g.successors(t), g.predecessors(t)}) {
      for (std::size_t next : neighbors) {
        if (!seen[next]) {
          seen[next] = true;
          ++reached;
          frontier.push(next);
        }
      }
    }
  }
  EXPECT_EQ(reached, g.num_tasks());
}

TEST_P(TgffScalePropertyTest, DegreeBoundsHoldAtScale) {
  const TgffOptions o = scale_options(GetParam());
  util::Rng rng(GetParam());
  const TaskGraph g = generate_tgff_graph(o, rng);
  for (std::size_t t = 0; t < g.num_tasks(); ++t) {
    EXPECT_LE(g.predecessors(t).size(), o.max_in_degree);
    // Out-degree may exceed the cap by the (rare) restart fallback by at
    // most one — same tolerance the base tgff_test uses.
    EXPECT_LE(g.successors(t).size(), o.max_out_degree + 1);
  }
}

TEST_P(TgffScalePropertyTest, SameSeedSameGraph) {
  const TgffOptions o = scale_options(GetParam());
  util::Rng rng_a(404), rng_b(404);
  const TaskGraph a = generate_tgff_graph(o, rng_a);
  const TaskGraph b = generate_tgff_graph(o, rng_b);
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  EXPECT_EQ(a.edges(), b.edges());
  for (std::size_t t = 0; t < a.num_tasks(); ++t) {
    EXPECT_EQ(a.task(t).type, b.task(t).type);
    EXPECT_EQ(a.task(t).criticality, b.task(t).criticality);
  }
}

TEST_P(TgffScalePropertyTest, SplitStreamsAreIndependent) {
  // Graphs generated from sibling Rng::split streams must differ from each
  // other and from the parent, and consuming one stream must not perturb
  // the other.
  const TgffOptions o = scale_options(GetParam());
  util::Rng parent(505);
  util::Rng stream_a = parent.split();
  util::Rng stream_b = parent.split();

  util::Rng parent_replay(505);
  util::Rng replay_a = parent_replay.split();
  util::Rng replay_b = parent_replay.split();
  // Consume replay_a's graph *after* replay_b's: order must not matter.
  const TaskGraph from_replay_b = generate_tgff_graph(o, replay_b);
  const TaskGraph from_replay_a = generate_tgff_graph(o, replay_a);

  const TaskGraph from_a = generate_tgff_graph(o, stream_a);
  const TaskGraph from_b = generate_tgff_graph(o, stream_b);

  EXPECT_EQ(from_a.edges(), from_replay_a.edges());
  EXPECT_EQ(from_b.edges(), from_replay_b.edges());
  EXPECT_NE(from_a.edges(), from_b.edges());
}

INSTANTIATE_TEST_SUITE_P(BenchSizes, TgffScalePropertyTest,
                         ::testing::Values(500, 1000, 2000));

}  // namespace
}  // namespace clrearly::app
