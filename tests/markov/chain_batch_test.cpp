// Differential tests for the batched SoA chain kernel: batched output is
// pinned *bit-identical* to the row-0 accessors of the AbsorbingChain
// reference (built by build_chain_reference) at every lane width and every
// SIMD dispatch level, including ragged final groups, mixed size classes,
// dedupe, cache backfill and singular edge chains; plus the bounded shrink
// policy of the batch workspace and a concurrent-batch TSan shard (test
// names stay under ChainBatch* so the CI TSan regex finds them).
#include "markov/chain_batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "markov/chain.hpp"
#include "platform/pe.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "reliability/task_metrics.hpp"
#include "util/cpu_features.hpp"
#include "util/linsolve.hpp"
#include "util/matrix.hpp"
#include "util/memo_cache.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::markov {
namespace {

using reliability::analyze_clr_chain;
using reliability::analyze_clr_chain_batch;
using reliability::ChainBatchOptions;
using reliability::ChainSolveStatus;
using reliability::ClrChainAnalysis;
using reliability::ClrChainParams;

// Bitwise equality: the contract is stronger than == (which calls -0.0 and
// 0.0 equal), so compare the representations.
#define EXPECT_BITEQ(a, b)                                 \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(double(a)),       \
            std::bit_cast<std::uint64_t>(double(b)))       \
      << "values " << (a) << " vs " << (b)

double frac(double x) { return x - std::floor(x); }

/// Dense distinct parameter sets: every field varies continuously with
/// `salt`, so no two lanes of a test batch are accidentally identical (the
/// dedupe test builds duplicates on purpose).
ClrChainParams make_params(std::size_t intervals, std::size_t salt) {
  const double s = static_cast<double>(salt);
  ClrChainParams p;
  p.exec_time_us = 50.0 + 0.37 * s;
  p.lambda_per_us = 1e-4 * (1.0 + frac(s * 0.173));
  p.hw_masking = 0.10 + 0.80 * frac(s * 0.113);
  p.implicit_ssw_masking = 0.05 + 0.60 * frac(s * 0.211);
  p.detection_coverage = 0.50 + 0.45 * frac(s * 0.317);
  p.tolerance_success = 0.40 + 0.55 * frac(s * 0.419);
  p.asw_masking = 0.20 + 0.70 * frac(s * 0.523);
  p.intervals = intervals;
  p.detection_time_us = 0.2 + 0.3 * frac(s * 0.611);
  p.tolerance_time_us = 1.0 + frac(s * 0.731);
  p.checkpoint_time_us = 0.5 + frac(s * 0.831);
  p.checkpoint_error_prob = 1e-5 * frac(s * 0.941);
  return p;
}

/// A chain that loops Exec -> HW -> Impl -> Det -> Tol -> Exec forever:
/// pne underflows to 0, nothing masks, detection and tolerance are certain
/// — I - Q is singular and the reference chain throws std::domain_error.
ClrChainParams singular_params() {
  ClrChainParams p = make_params(1, 0);
  p.exec_time_us = 1000.0;
  p.lambda_per_us = 1e6;  // pne = exp(-1e9) == 0.0
  p.hw_masking = 0.0;
  p.implicit_ssw_masking = 0.0;
  p.detection_coverage = 1.0;
  p.tolerance_success = 1.0;
  return p;
}

void expect_same_analysis(const ClrChainAnalysis& got,
                          const ClrChainAnalysis& want) {
  EXPECT_BITEQ(got.min_exec_time_us, want.min_exec_time_us);
  EXPECT_BITEQ(got.avg_exec_time_us, want.avg_exec_time_us);
  EXPECT_BITEQ(got.exec_time_stddev_us, want.exec_time_stddev_us);
  EXPECT_BITEQ(got.error_prob, want.error_prob);
}

/// The analysis read off the build_chain_reference chains: the
/// AbsorbingChain row-0 accessors, plus E[T^2] from state 0 as
/// row0 . (r.^2 + 2 r .* Q t) with t = (I - Q)^{-1} r.
ClrChainAnalysis reference_analysis(const ClrChainParams& p) {
  const AbsorbingChain timing = reliability::build_chain_reference(p, false);
  const AbsorbingChain functional = reliability::build_chain_reference(p, true);
  const std::vector<double>& res = timing.residence_times();
  const std::vector<double> row0 = timing.expected_visits(0);
  const std::vector<double> qt = timing.q().apply(
      util::LuDecomposition(util::Matrix::identity(res.size()) - timing.q())
          .solve(res));
  double second_moment = 0.0;
  for (std::size_t i = 0; i < res.size(); ++i) {
    second_moment += row0[i] * (res[i] * res[i] + 2.0 * res[i] * qt[i]);
  }
  const double n = static_cast<double>(p.intervals);
  ClrChainAnalysis out;
  out.min_exec_time_us = p.exec_time_us + n * p.detection_time_us +
                         (n - 1.0) * p.checkpoint_time_us;
  out.avg_exec_time_us = timing.expected_time(0);
  out.exec_time_stddev_us = std::sqrt(std::max(
      second_moment - out.avg_exec_time_us * out.avg_exec_time_us, 0.0));
  out.error_prob =
      functional.absorption_probability(0, reliability::kAbsorbError);
  return out;
}

/// Batched analysis of `params` at group width `width` must equal the
/// reference analysis element for element, bitwise.
void expect_batch_matches_reference(const std::vector<ClrChainParams>& params,
                                 std::size_t width) {
  ChainBatchOptions options;
  options.group_width = width;
  options.use_cache = false;
  const std::vector<ClrChainAnalysis> batched =
      analyze_clr_chain_batch(params, options);
  ASSERT_EQ(batched.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE("index " + std::to_string(i) + " width " +
                 std::to_string(width));
    expect_same_analysis(batched[i], reference_analysis(params[i]));
  }
}

class ChainBatchDifferentialTest
    : public ::testing::TestWithParam<std::size_t> {};

// The tentpole pin: for every size class (t = 7n - 1 transient states, so
// intervals 1..6 sweeps t = 6..41) and every supported lane width, batched
// results are bit-identical to the AbsorbingChain reference.
TEST_P(ChainBatchDifferentialTest, BitIdenticalToScalarAcrossWidths) {
  const std::size_t intervals = GetParam();
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 13; ++i) {
    params.push_back(make_params(intervals, 100 * intervals + i));
  }
  for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    expect_batch_matches_reference(params, width);
  }
}

INSTANTIATE_TEST_SUITE_P(SizeClasses, ChainBatchDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Every dispatch level the hardware supports produces the same bits — the
// forced level caps at detected_simd_level(), so on scalar-only CI this
// still runs (and trivially passes) for each requested level.
TEST(ChainBatchDispatchTest, BitIdenticalAcrossSimdLevels) {
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 9; ++i) params.push_back(make_params(3, 40 + i));
  for (const util::SimdLevel level :
       {util::SimdLevel::kScalar, util::SimdLevel::kAvx2,
        util::SimdLevel::kAvx512}) {
    SCOPED_TRACE(util::to_string(level));
    util::force_simd_level(level);
    for (std::size_t width : {std::size_t{4}, std::size_t{8}}) {
      expect_batch_matches_reference(params, width);
    }
  }
  util::reset_simd_level();
}

// Ragged final group (5 chains at width 4 -> 3 pad lanes in group 2) and
// the non-preferred width fallback (width 3 goes through the per-lane
// staging path).
TEST(ChainBatchRaggedTest, PadLanesAndOddWidths) {
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 5; ++i) params.push_back(make_params(2, 70 + i));
  static util::Counter& pads = util::metric_counter("chain.batch.pad_lanes");
  const std::uint64_t pads_before = pads.value();
  expect_batch_matches_reference(params, 4);
  // 2 groups x 2 chain flavors are solved, but pad accounting is per
  // collect-group: 4 + 1(+3 pads).
  EXPECT_EQ(pads.value() - pads_before, 3u);
  expect_batch_matches_reference(params, 3);
  expect_batch_matches_reference(params, 8);
}

// One call mixing size classes partitions internally and still matches the
// reference at every position.
TEST(ChainBatchMixedClassTest, MixedSizeClassesInOneCall) {
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 21; ++i) {
    params.push_back(make_params(1 + (i * 7) % 5, 300 + i));
  }
  expect_batch_matches_reference(params, 4);
}

// Duplicate parameter sets burn no extra lanes: they are resolved through
// the canonical Key128 and counted in chain.batch.dedupe_hits.
TEST(ChainBatchDedupeTest, DuplicatesShareOneLane) {
  const ClrChainParams base = make_params(2, 7);
  std::vector<ClrChainParams> params(9, base);
  params[4] = make_params(2, 8);  // one distinct set in the middle

  static util::Counter& dedupe =
      util::metric_counter("chain.batch.dedupe_hits");
  static util::Counter& lanes =
      util::metric_counter("chain.batch.lanes_filled");
  const std::uint64_t dedupe_before = dedupe.value();
  const std::uint64_t lanes_before = lanes.value();

  ChainBatchOptions options;
  options.group_width = 4;
  options.use_cache = false;
  const auto batched = analyze_clr_chain_batch(params, options);

  EXPECT_EQ(dedupe.value() - dedupe_before, 7u);  // 9 dups of 2 uniques
  EXPECT_EQ(lanes.value() - lanes_before, 2u);
  for (std::size_t i = 0; i < params.size(); ++i) {
    expect_same_analysis(batched[i], reference_analysis(params[i]));
  }
}

// Batch-solved misses land in the memo cache: a single-chain
// analyze_clr_chain of the same parameters afterwards is a pure cache hit
// (no new kernel solve).
TEST(ChainBatchCacheTest, BackfillsMemoCache) {
  util::set_cache_capacity(3333);  // distinct capacity -> fresh empty cache
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 6; ++i) params.push_back(make_params(3, 500 + i));

  ChainBatchOptions options;
  options.group_width = 4;
  const auto batched = analyze_clr_chain_batch(params, options);

  static util::Counter& solves =
      util::metric_counter("chain.batch.kernel_solves");
  const std::uint64_t solves_before = solves.value();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const ClrChainAnalysis cached = analyze_clr_chain(params[i]);
    expect_same_analysis(batched[i], cached);
  }
  EXPECT_EQ(solves.value(), solves_before) << "expected pure cache hits";

  // Second batched call over the same params: all cache hits, zero lanes.
  static util::Counter& lanes =
      util::metric_counter("chain.batch.lanes_filled");
  static util::Counter& hits =
      util::metric_counter("cache.chain_solve.hits");
  const std::uint64_t lanes_before = lanes.value();
  const std::uint64_t hits_before = hits.value();
  const auto again = analyze_clr_chain_batch(params, options);
  EXPECT_EQ(lanes.value(), lanes_before);
  EXPECT_EQ(hits.value() - hits_before, params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    expect_same_analysis(again[i], batched[i]);
  }
  util::reset_cache_capacity();
}

// A singular (non-absorbing) chain in a batch: without a status vector the
// call throws like the reference chain does; with one, the bad lane is
// flagged, zeroed, kept out of the cache — and its batch-mates still match
// the reference bit for bit.
TEST(ChainBatchSingularTest, SingularLanesFlaggedOrThrow) {
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 5; ++i) params.push_back(make_params(1, 900 + i));
  params[2] = singular_params();
  ASSERT_THROW(reliability::build_chain_reference(params[2], false),
               std::domain_error);
  EXPECT_THROW(analyze_clr_chain(params[2]), std::domain_error);

  ChainBatchOptions options;
  options.group_width = 4;
  options.use_cache = false;
  EXPECT_THROW(analyze_clr_chain_batch(params, options), std::domain_error);

  std::vector<ChainSolveStatus> status;
  const auto batched = analyze_clr_chain_batch(params, options, &status);
  ASSERT_EQ(status.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i == 2) {
      EXPECT_EQ(status[i], ChainSolveStatus::kSingular);
      EXPECT_BITEQ(batched[i].avg_exec_time_us, 0.0);
      EXPECT_BITEQ(batched[i].error_prob, 0.0);
    } else {
      EXPECT_EQ(status[i], ChainSolveStatus::kOk);
      expect_same_analysis(batched[i], reference_analysis(params[i]));
    }
  }

  // All-singular batch: every lane flagged, no throw with status out.
  std::vector<ClrChainParams> all_bad(3, singular_params());
  const auto bad = analyze_clr_chain_batch(all_bad, options, &status);
  for (const ChainSolveStatus s : status) {
    EXPECT_EQ(s, ChainSolveStatus::kSingular);
  }
}

// The batched evaluate paths of TaskAnalyzer ride on the same machinery;
// spot-check the span-of-configs form against scalar evaluate().
TEST(ChainBatchEvaluateTest, EvaluateBatchMatchesScalar) {
  const auto analyzer = reliability::TaskAnalyzer::paper_default();
  reliability::BaseImpl impl;
  impl.name = "k";
  impl.base_exec_time_us = 120.0;
  impl.base_power_w = 0.8;
  platform::PeType pe;
  pe.name = "test-pe";
  pe.masking_factor = 0.3;
  pe.dvfs = platform::DvfsTable::paper_default();
  std::vector<reliability::ClrConfig> configs;
  const auto& space = analyzer.space();
  for (std::size_t h = 0; h < space.hw_methods().size(); ++h) {
    for (std::size_t s = 0; s < space.ssw_methods().size(); ++s) {
      configs.push_back(reliability::ClrConfig{h, s, 0, 0});
    }
  }
  const auto batched = analyzer.evaluate_batch(impl, pe, configs);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto scalar = analyzer.evaluate(impl, pe, configs[i]);
    EXPECT_BITEQ(batched[i].avg_exec_time_us, scalar.avg_exec_time_us);
    EXPECT_BITEQ(batched[i].error_prob, scalar.error_prob);
    EXPECT_BITEQ(batched[i].energy_uj, scalar.energy_uj);
    EXPECT_BITEQ(batched[i].mttf_hours, scalar.mttf_hours);
  }
}

// Satellite fix: a large-t burst must not pin the thread-local buffers at
// their high-water size forever. After kShrinkPatience small configures the
// ChainBatch releases its capacity.
TEST(ChainBatchShrinkTest, BatchWorkspaceShrinksAfterBurst) {
  ChainBatch ws;
  ws.configure(120, 2, 8);  // ~240k doubles, well past kShrinkMinDoubles
  const std::size_t burst_footprint = ws.footprint_doubles();
  EXPECT_GE(ws.high_water_doubles, ChainBatch::kShrinkMinDoubles);

  for (std::size_t i = 0; i < ChainBatch::kShrinkPatience; ++i) {
    EXPECT_GE(ws.footprint_doubles(), burst_footprint) << "shrank early, i=" << i;
    ws.configure(6, 1, 4);
  }
  EXPECT_LT(ws.footprint_doubles(), burst_footprint / 4);
  // And the policy re-arms: a new burst re-grows, small use shrinks again.
  ws.configure(120, 2, 8);
  EXPECT_GE(ws.footprint_doubles(), burst_footprint);
}

// TSan shard: concurrent batched analyses use thread-local ChainBatch
// workspaces and the shared memo cache; no races, and every thread's
// results match the reference.
TEST(ChainBatchConcurrencyTest, ConcurrentBatchesAreRaceFreeAndExact) {
  util::set_cache_capacity(2048);
  std::vector<std::vector<ClrChainParams>> work(16);
  for (std::size_t w = 0; w < work.size(); ++w) {
    for (std::size_t i = 0; i < 12; ++i) {
      // Overlapping param sets across threads -> concurrent cache
      // insert/lookup of the same keys.
      work[w].push_back(make_params(1 + (i % 3), 700 + (w % 4) * 16 + i));
    }
  }
  std::vector<std::vector<ClrChainAnalysis>> results(work.size());
  util::parallel_for(work.size(), [&](std::size_t w) {
    ChainBatchOptions options;
    options.group_width = 4;
    results[w] = analyze_clr_chain_batch(work[w], options);
  });
  for (std::size_t w = 0; w < work.size(); ++w) {
    for (std::size_t i = 0; i < work[w].size(); ++i) {
      expect_same_analysis(results[w][i], reference_analysis(work[w][i]));
    }
  }
  util::reset_cache_capacity();
}

// Dispatch plumbing: preferred widths per level, env parsing, and the
// forced-level clamp.
TEST(ChainBatchDispatchTest, PreferredWidthsAndEnvParsing) {
  EXPECT_EQ(preferred_batch_width(util::SimdLevel::kAvx512), 8u);
  EXPECT_EQ(preferred_batch_width(util::SimdLevel::kAvx2), 8u);
  EXPECT_EQ(preferred_batch_width(util::SimdLevel::kScalar), 4u);

  EXPECT_EQ(util::detail::parse_simd_env("scalar"), util::SimdLevel::kScalar);
  EXPECT_EQ(util::detail::parse_simd_env("avx2"), util::SimdLevel::kAvx2);
  EXPECT_EQ(util::detail::parse_simd_env("avx512"), util::SimdLevel::kAvx512);
  EXPECT_EQ(util::detail::parse_simd_env("auto"), util::SimdLevel::kAvx512);
  EXPECT_EQ(util::detail::parse_simd_env(nullptr), util::SimdLevel::kAvx512);
  EXPECT_EQ(util::detail::parse_simd_env("bogus"), util::SimdLevel::kAvx512);

  util::force_simd_level(util::SimdLevel::kScalar);
  EXPECT_EQ(util::active_simd_level(), util::SimdLevel::kScalar);
  util::reset_simd_level();
  EXPECT_LE(util::active_simd_level(), util::detected_simd_level());
}

}  // namespace
}  // namespace clrearly::markov
