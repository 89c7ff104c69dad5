#include "oracle/chain_builder.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace clrearly::markov {
namespace {

TEST(ChainBuilderTest, BuildsSimpleChain) {
  ChainBuilder b;
  const StateId work = b.transient("work", 2.0);
  const StateId done = b.absorbing("done");
  b.edge(work, work, 0.25);
  b.edge(work, done, 0.75);
  const AbsorbingChain chain = b.build();
  EXPECT_EQ(chain.num_transient(), 1u);
  EXPECT_EQ(chain.num_absorbing(), 1u);
  EXPECT_NEAR(chain.expected_time(0), 2.0 / 0.75, 1e-12);
}

TEST(ChainBuilderTest, DuplicateNamesRejected) {
  ChainBuilder b;
  b.transient("s", 1.0);
  EXPECT_THROW(b.transient("s", 1.0), std::invalid_argument);
  EXPECT_THROW(b.absorbing("s"), std::invalid_argument);
}

TEST(ChainBuilderTest, NegativeResidenceRejected) {
  ChainBuilder b;
  EXPECT_THROW(b.transient("s", -1.0), std::invalid_argument);
}

TEST(ChainBuilderTest, EdgesFromAbsorbingRejected) {
  ChainBuilder b;
  const StateId t = b.transient("t", 0.0);
  const StateId a = b.absorbing("a");
  EXPECT_THROW(b.edge(a, t, 1.0), std::invalid_argument);
}

TEST(ChainBuilderTest, BadProbabilityRejected) {
  ChainBuilder b;
  const StateId t = b.transient("t", 0.0);
  const StateId a = b.absorbing("a");
  EXPECT_THROW(b.edge(t, a, 1.5), std::invalid_argument);
  EXPECT_THROW(b.edge(t, a, -0.1), std::invalid_argument);
}

TEST(ChainBuilderTest, ParallelEdgesAccumulate) {
  ChainBuilder b;
  const StateId t = b.transient("t", 1.0);
  const StateId a = b.absorbing("a");
  b.edge(t, a, 0.5);
  b.edge(t, a, 0.5);
  EXPECT_NO_THROW(b.build());
}

TEST(ChainBuilderTest, RemainingTracksAssignedMass) {
  ChainBuilder b;
  const StateId t = b.transient("t", 1.0);
  const StateId a = b.absorbing("a");
  EXPECT_DOUBLE_EQ(b.remaining(t), 1.0);
  b.edge(t, a, 0.3);
  EXPECT_NEAR(b.remaining(t), 0.7, 1e-12);
}

TEST(ChainBuilderTest, EdgeRemainingCompletesRow) {
  ChainBuilder b;
  const StateId t = b.transient("t", 1.0);
  const StateId a = b.absorbing("a");    // absorbing index 0
  const StateId e = b.absorbing("err");  // absorbing index 1
  b.edge(t, e, 0.2);
  b.edge_remaining(t, a);
  const AbsorbingChain chain = b.build();
  EXPECT_NEAR(chain.absorption_probability(0, a.index), 0.8, 1e-12);
  EXPECT_NEAR(chain.absorption_probability(0, e.index), 0.2, 1e-12);
}

TEST(ChainBuilderTest, EdgeRemainingOnCompleteRowIsNoop) {
  ChainBuilder b;
  const StateId t = b.transient("t", 1.0);
  const StateId a = b.absorbing("a");
  b.edge(t, a, 1.0);
  EXPECT_NO_THROW(b.edge_remaining(t, a));
  EXPECT_NO_THROW(b.build());
}

TEST(ChainBuilderTest, IncompleteRowFailsBuild) {
  ChainBuilder b;
  const StateId t = b.transient("t", 1.0);
  const StateId a = b.absorbing("a");
  b.edge(t, a, 0.6);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(ChainBuilderTest, LookupFindsStates) {
  ChainBuilder b;
  const StateId t = b.transient("work", 1.0);
  const StateId a = b.absorbing("end");
  EXPECT_EQ(b.lookup("work"), t);
  EXPECT_EQ(b.lookup("end"), a);
  EXPECT_THROW(b.lookup("missing"), std::invalid_argument);
}

TEST(ChainBuilderTest, ZeroProbabilityEdgeIsDropped) {
  ChainBuilder b;
  const StateId t = b.transient("t", 1.0);
  const StateId a = b.absorbing("a");
  b.edge(t, t, 0.0);  // no-op
  b.edge(t, a, 1.0);
  const AbsorbingChain chain = b.build();
  EXPECT_NEAR(chain.expected_steps(0), 1.0, 1e-12);
}

TEST(ChainBuilderTest, MatchesDirectMatrixConstruction) {
  // Same retry chain built both ways must agree on every statistic.
  ChainBuilder b;
  const StateId work = b.transient("work", 5.0);
  const StateId recover = b.transient("recover", 2.0);
  const StateId ok = b.absorbing("ok");
  const StateId fail = b.absorbing("fail");
  b.edge(work, ok, 0.6);
  b.edge(work, recover, 0.4);
  b.edge(recover, work, 0.75);
  b.edge(recover, fail, 0.25);
  const AbsorbingChain built = b.build();

  const util::Matrix q{{0.0, 0.4}, {0.75, 0.0}};
  const util::Matrix r{{0.6, 0.0}, {0.0, 0.25}};
  const AbsorbingChain direct(q, r, {5.0, 2.0});

  EXPECT_NEAR(built.expected_time(0), direct.expected_time(0), 1e-12);
  EXPECT_NEAR(built.absorption_probability(0, 0),
              direct.absorption_probability(0, 0), 1e-12);
  EXPECT_NEAR(built.absorption_probability(0, 1),
              direct.absorption_probability(0, 1), 1e-12);
}

}  // namespace
}  // namespace clrearly::markov
