// Chain-kernel benchmark: the old eager analysis path (named-state
// ChainBuilder construction + full fundamental-matrix materialization, what
// every cache-miss chain solve paid before the single-solve kernel) against
// the new path (the warm width-1 kernel pair: batched assembly + one adjoint
// solve per chain on the thread's ChainBatch). Sweeps the interval count —
// transient-state count t = 7n - 1 — and reports per-evaluation wall time
// and heap-allocation counts for both paths, plus the differential error
// between them; then times the wide batched kernel against the width-1
// kernel. Emits BENCH_chain.json; docs/PERFORMANCE.md ("Chain kernel")
// explains the fields.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "markov/chain_batch.hpp"
#include "oracle/clr_chain_reference.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

// ---- Heap-allocation counter -----------------------------------------------
// Bench-local global operator new/delete overrides: every heap allocation in
// the process bumps one relaxed atomic. This is how the "allocation-free once
// warm" claim of the kernel is measured rather than asserted.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace clrearly;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// A representative task configuration; `salt` perturbs the timing inputs so
/// consecutive evaluations are distinct chains, as in a real DSE sweep.
reliability::ClrChainParams make_params(std::size_t intervals,
                                        std::size_t salt) {
  reliability::ClrChainParams p;
  p.exec_time_us = 100.0 + static_cast<double>(salt % 17);
  p.lambda_per_us = 1e-4;
  p.hw_masking = 0.4;
  p.implicit_ssw_masking = 0.3;
  p.detection_coverage = 0.9;
  p.tolerance_success = 0.95;
  p.asw_masking = 0.5;
  p.intervals = intervals;
  p.detection_time_us = 0.5;
  p.tolerance_time_us = 2.0;
  p.checkpoint_time_us = 1.0;
  p.checkpoint_error_prob = 1e-5;
  return p;
}

/// The pre-kernel analysis: ChainBuilder construction and the formerly-eager
/// full matrices, materialized through the now-lazy accessors. This is what
/// one cache-miss evaluation cost before the single-solve kernel.
reliability::ClrChainAnalysis analyze_old(
    const reliability::ClrChainParams& params) {
  reliability::ClrChainAnalysis out;
  const double n = static_cast<double>(params.intervals);
  out.min_exec_time_us = params.exec_time_us + n * params.detection_time_us +
                         (n - 1.0) * params.checkpoint_time_us;
  const markov::AbsorbingChain timing =
      reliability::build_chain_reference(params, /*functional=*/false);
  timing.fundamental();  // the old constructor always built N ...
  out.avg_exec_time_us = timing.expected_time(0);
  out.exec_time_stddev_us = std::sqrt(std::max(timing.time_variance(0), 0.0));
  const markov::AbsorbingChain functional =
      reliability::build_chain_reference(params, /*functional=*/true);
  functional.fundamental();  // ... and B = N R for both chains.
  functional.absorption_probabilities();
  out.error_prob =
      functional.absorption_probability(0, reliability::kAbsorbError);
  return out;
}

/// One chain through the width-1 kernel pair on the calling thread's batch
/// workspace: what analyze_clr_chain solves on a cache miss, minus the batch
/// driver's bookkeeping. Allocation-free once the workspace is warm.
reliability::ClrChainAnalysis analyze_w1(
    const reliability::ClrChainParams& params) {
  markov::ChainBatch& batch = markov::local_chain_batch();
  const reliability::ClrChainParams* const lane = &params;
  reliability::ClrChainAnalysis out;
  const double n = static_cast<double>(params.intervals);
  out.min_exec_time_us = params.exec_time_us + n * params.detection_time_us +
                         (n - 1.0) * params.checkpoint_time_us;
  reliability::assemble_clr_chain_batch({&lane, 1}, /*functional=*/false,
                                        batch);
  markov::solve_row0_batch(batch, /*with_second_moment=*/true);
  const double mean = batch.expected_time[0];
  out.avg_exec_time_us = mean;
  out.exec_time_stddev_us =
      std::sqrt(std::max(batch.second_moment[0] - mean * mean, 0.0));
  reliability::assemble_clr_chain_batch({&lane, 1}, /*functional=*/true,
                                        batch);
  markov::solve_row0_batch(batch, /*with_second_moment=*/false);
  out.error_prob = batch.b0[reliability::kAbsorbError];
  return out;
}

double rel_err(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  return std::abs(a - b) / scale;
}

/// Like make_params but with a continuous timing perturbation, so every chain
/// in a batched workload is a distinct system. The %17 salt of make_params
/// would leave only 17 unique keys and the batch path's dedupe would solve a
/// handful of chains while the width-1 loop solves thousands — a fake
/// speedup.
reliability::ClrChainParams make_dense_params(std::size_t intervals,
                                              std::size_t i) {
  reliability::ClrChainParams p = make_params(intervals, 0);
  p.exec_time_us = 100.0 + 1e-3 * static_cast<double>(i % 65536);
  return p;
}

struct PathStats {
  double ns_per_eval = 0.0;
  double allocs_per_eval = 0.0;
};

/// Best-of-`reps` timing of `evals` consecutive analyses through `fn`, with
/// the allocation count of the final (warmest) rep.
template <typename Fn>
PathStats measure(Fn&& fn, std::size_t intervals, std::size_t evals,
                  int reps) {
  PathStats stats;
  double best = 1e300;
  std::uint64_t allocs = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t alloc_start = allocations_now();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < evals; ++i) fn(make_params(intervals, i));
    best = std::min(best, seconds_since(start));
    allocs = allocations_now() - alloc_start;
  }
  stats.ns_per_eval = best * 1e9 / static_cast<double>(evals);
  stats.allocs_per_eval =
      static_cast<double>(allocs) / static_cast<double>(evals);
  return stats;
}

/// One batched configuration: lane width + the SIMD level forced while
/// timing it. The width-1 kernel (analyze_w1) is the per-chain baseline the
/// speedups are measured against.
struct BatchedConfig {
  std::size_t width;
  util::SimdLevel level;
};

/// Best-of-`reps` wall time for one analyze_clr_chain_batch call over
/// `params`, with the memo cache bypassed and `level` forced for dispatch.
double time_batch(const std::vector<reliability::ClrChainParams>& params,
                  std::size_t width, util::SimdLevel level, int reps) {
  reliability::ChainBatchOptions opt;
  opt.group_width = width;
  opt.use_cache = false;
  util::force_simd_level(level);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    reliability::analyze_clr_chain_batch(params, opt);
    best = std::min(best, seconds_since(start));
  }
  util::reset_simd_level();
  return best;
}

double max_analysis_err(const reliability::ClrChainAnalysis& a,
                        const reliability::ClrChainAnalysis& b) {
  return std::max({rel_err(a.avg_exec_time_us, b.avg_exec_time_us),
                   rel_err(a.exec_time_stddev_us, b.exec_time_stddev_us),
                   rel_err(a.error_prob, b.error_prob)});
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_chain_kernel",
                       "Markov chain analysis: eager full-inverse path vs the "
                       "single-solve kernel (emits BENCH_chain.json)");
  args.option("max-intervals", "largest interval count to sweep", "5")
      .option("evals", "analyses per timed rep", "2000")
      .option("out", "output JSON path", "BENCH_chain.json");
  if (!util::parse_standard_args(args, argc, argv, util::LogLevel::Warn)) {
    return 0;
  }

  std::size_t max_intervals = args.get_uint("max-intervals");
  std::size_t evals = args.get_uint("evals");
  int reps = 5;
  if (core::fast_mode()) {
    evals = std::min<std::size_t>(evals, 200);
    reps = 2;
  }
  if (max_intervals == 0) max_intervals = 1;

  std::printf("=== chain kernel: eager full-inverse vs single-solve, "
              "%zu evals x %d reps ===\n",
              evals, reps);

  util::JsonArray sizes;
  double max_err = 0.0;
  double worst_speedup = 1e300;
  for (std::size_t n = 1; n <= max_intervals; ++n) {
    // Differential check first: both paths must agree on every output.
    for (std::size_t i = 0; i < 16; ++i) {
      const reliability::ClrChainParams p = make_params(n, i);
      const reliability::ClrChainAnalysis a = analyze_old(p);
      const reliability::ClrChainAnalysis b = analyze_w1(p);
      max_err = std::max({max_err,
                          rel_err(a.avg_exec_time_us, b.avg_exec_time_us),
                          rel_err(a.exec_time_stddev_us, b.exec_time_stddev_us),
                          rel_err(a.error_prob, b.error_prob)});
    }

    const PathStats old_path = measure(
        [](const reliability::ClrChainParams& p) { analyze_old(p); }, n,
        evals, reps);
    const PathStats new_path = measure(
        [](const reliability::ClrChainParams& p) { analyze_w1(p); }, n, evals,
        reps);

    const double speedup = old_path.ns_per_eval / new_path.ns_per_eval;
    worst_speedup = std::min(worst_speedup, speedup);
    const std::size_t t = 7 * n - 1;
    std::printf("intervals %zu (t=%2zu): old %8.0f ns/eval (%5.1f allocs), "
                "new %8.0f ns/eval (%5.2f allocs) -> %.2fx\n",
                n, t, old_path.ns_per_eval, old_path.allocs_per_eval,
                new_path.ns_per_eval, new_path.allocs_per_eval, speedup);

    util::JsonObject row;
    row["intervals"] = n;
    row["transient_states"] = t;
    row["old_ns_per_eval"] = old_path.ns_per_eval;
    row["new_ns_per_eval"] = new_path.ns_per_eval;
    row["speedup"] = speedup;
    row["old_allocs_per_eval"] = old_path.allocs_per_eval;
    row["new_allocs_per_eval"] = new_path.allocs_per_eval;
    sizes.push_back(util::JsonValue(std::move(row)));
  }

  std::printf("max relative error old vs new: %.3g\n", max_err);
  const bool agree = max_err <= 1e-9;
  if (!agree) std::printf("DIVERGED: differential error above 1e-9\n");

  // ---- Batched kernel section ----------------------------------------------
  // Same chains through analyze_clr_chain_batch, dispatch pinned per
  // configuration: the production lane width for an AVX2-only machine and
  // for the detected level (these coincide when the host caps at AVX2).
  // Baseline is the per-chain width-1 kernel over the identical
  // (dense-distinct) parameter set, cache bypassed on both sides so the
  // comparison is solve throughput, not memoization.
  const util::SimdLevel detected = util::detected_simd_level();
  const util::SimdLevel avx2_level =
      std::min(detected, util::SimdLevel::kAvx2);
  std::vector<BatchedConfig> configs;
  configs.push_back(
      {markov::preferred_batch_width(avx2_level), avx2_level});
  if (detected != avx2_level) {
    configs.push_back({markov::preferred_batch_width(detected), detected});
  }

  std::printf("=== batched kernel (detected SIMD: %s) ===\n",
              util::to_string(detected));

  util::JsonArray batched;
  double batched_max_err = 0.0;
  double batched_worst_speedup = 1e300;
  for (std::size_t n = 1; n <= max_intervals; ++n) {
    std::vector<reliability::ClrChainParams> params;
    params.reserve(evals);
    for (std::size_t i = 0; i < evals; ++i) {
      params.push_back(make_dense_params(n, i));
    }

    std::vector<reliability::ClrChainAnalysis> reference;
    reference.reserve(evals);
    double scalar_best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      reference.clear();
      const auto start = Clock::now();
      for (const reliability::ClrChainParams& p : params) {
        reference.push_back(analyze_w1(p));
      }
      scalar_best = std::min(scalar_best, seconds_since(start));
    }
    const double scalar_ns =
        scalar_best * 1e9 / static_cast<double>(evals);

    const std::size_t t = 7 * n - 1;
    std::printf("intervals %zu (t=%2zu): w1 %7.0f ns/chain", n, t,
                scalar_ns);
    double best_speedup = 0.0;
    for (const BatchedConfig& cfg : configs) {
      // Correctness before timing: every lane must match the width-1 kernel.
      reliability::ChainBatchOptions opt;
      opt.group_width = cfg.width;
      opt.use_cache = false;
      util::force_simd_level(cfg.level);
      const std::vector<reliability::ClrChainAnalysis> got =
          reliability::analyze_clr_chain_batch(params, opt);
      util::reset_simd_level();
      for (std::size_t i = 0; i < evals; ++i) {
        batched_max_err =
            std::max(batched_max_err, max_analysis_err(reference[i], got[i]));
      }

      const double secs = time_batch(params, cfg.width, cfg.level, reps);
      const double ns = secs * 1e9 / static_cast<double>(evals);
      const double speedup = scalar_ns / ns;
      best_speedup = std::max(best_speedup, speedup);
      const std::size_t batches = (evals + cfg.width - 1) / cfg.width;
      const double pad_pct = 100.0 *
                             static_cast<double>(batches * cfg.width - evals) /
                             static_cast<double>(batches * cfg.width);
      std::printf(" | w%zu@%s %7.0f ns (%4.1fx, %.1f%% pad)", cfg.width,
                  util::to_string(cfg.level), ns, speedup, pad_pct);

      util::JsonObject row;
      row["intervals"] = n;
      row["transient_states"] = t;
      row["width"] = cfg.width;
      row["simd"] = std::string(util::to_string(cfg.level));
      row["scalar_ns_per_chain"] = scalar_ns;
      row["ns_per_chain"] = ns;
      row["chains_per_sec"] = 1e9 / ns;
      row["speedup_vs_scalar"] = speedup;
      row["pad_waste_pct"] = pad_pct;
      batched.push_back(util::JsonValue(std::move(row)));
    }
    std::printf("\n");
    batched_worst_speedup = std::min(batched_worst_speedup, best_speedup);
  }

  std::printf("max relative error batched vs width 1: %.3g\n",
              batched_max_err);
  const bool batched_agree = batched_max_err <= 1e-9;
  if (!batched_agree) {
    std::printf("DIVERGED: batched differential error above 1e-9\n");
  }
  if (batched_worst_speedup < 2.0) {
    // Soft gate: CI prints the warning but the run still succeeds — shared
    // runners are too noisy to hard-fail on throughput.
    std::printf("WARNING: batched speedup %.2fx below the 2x soft gate\n",
                batched_worst_speedup);
  }

  util::JsonObject report;
  report["benchmark"] = "chain_kernel";
  report["evals_per_rep"] = evals;
  report["reps"] = reps;
  report["sizes"] = std::move(sizes);
  report["max_rel_err"] = max_err;
  report["worst_speedup"] = worst_speedup;
  report["agree"] = agree;
  report["simd_detected"] = std::string(util::to_string(detected));
  report["batched"] = std::move(batched);
  report["batched_max_rel_err"] = batched_max_err;
  report["batched_worst_speedup"] = batched_worst_speedup;
  report["batched_agree"] = batched_agree;

  const std::string out = args.get("out");
  std::ofstream stream(out);
  stream << util::json_serialize(util::JsonValue(std::move(report))) << "\n";
  std::printf("[wrote %s]\n", out.c_str());
  return (agree && batched_agree) ? 0 : 1;
}
