// Construction of the paper's Fig. 3 Markov chains for an arbitrary CLR
// configuration, and their solution into task-level reliability numbers.
//
// Per inter-checkpoint interval (ICI) the chain threads
//   Exec -> HWRel -> SSWImpl -> SSWDet -> SSWTol -> ASWRel
// with residence time only on Exec (useful execution + always-on detection),
// SSWTol (rollback/restore) and Chkpnt (checkpoint creation). Masked or
// tolerated errors continue; in the *functional* chain errors that escape
// every layer absorb into Error, clean completion into noError. In the
// *timing* chain the outcome is irrelevant — all forward paths lead to End —
// so the expected time to absorption is the average execution time whether or
// not the result is correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "markov/chain_batch.hpp"
#include "util/memo_cache.hpp"

namespace clrearly::reliability {

/// Fully resolved numeric inputs for one task implementation under one CLR
/// configuration (all masking/DVFS/overhead scaling already applied — see
/// TaskAnalyzer for the translation from catalog entries).
struct ClrChainParams {
  double exec_time_us = 0.0;        ///< total useful execution time
  double lambda_per_us = 0.0;       ///< effective unmasked-by-arch SEU rate
  double hw_masking = 0.0;          ///< spatial-redundancy masking m_HW
  double implicit_ssw_masking = 0.0;///< m_implSSW
  double detection_coverage = 0.0;  ///< cov_Det
  double tolerance_success = 0.0;   ///< m_Tol
  double asw_masking = 0.0;         ///< m_ASW
  std::size_t intervals = 1;        ///< number of ICIs (checkpoints + 1)
  double detection_time_us = 0.0;   ///< T_Det, paid once per ICI pass
  double tolerance_time_us = 0.0;   ///< T_Tol, paid per detected error
  double checkpoint_time_us = 0.0;  ///< T_Chk, per checkpoint
  double checkpoint_error_prob = 0.0; ///< p_Chke (dotted edge of Fig. 3b)

  /// Unequal checkpoint intervals (a capability the paper's Section IV
  /// explicitly claims for the Markov approach): fraction of exec_time_us
  /// spent in each ICI. Empty = equal split; otherwise must have `intervals`
  /// entries, each positive, summing to 1 (within 1e-9).
  std::vector<double> interval_fractions;

  /// Validate ranges; throws std::invalid_argument.
  void validate() const;

  /// Useful execution time of interval `i` (honoring interval_fractions).
  double interval_time(std::size_t i) const;

  /// Probability of error-free useful execution of interval `i`:
  /// pne_i = exp(-lambda * interval_time(i)).
  double pne_for_interval(std::size_t i) const;
};

/// Indices of the functional chain's absorbing states.
inline constexpr std::size_t kAbsorbError = 0;
inline constexpr std::size_t kAbsorbNoError = 1;

/// Task-level reliability numbers from both chains.
struct ClrChainAnalysis {
  double min_exec_time_us = 0.0;  ///< error-free path length
  double avg_exec_time_us = 0.0;  ///< E[time to absorption], timing chain
  double exec_time_stddev_us = 0.0;
  double error_prob = 0.0;        ///< P[absorb in Error], functional chain
};

/// Canonical 128-bit key of the chain solve for `params`.
///
/// The key streams exactly the quantities the Fig. 3 chains are built from —
/// the layer maskings/coverages, the overhead residence times, the interval
/// count, and the *derived* per-interval values interval_time(i) and
/// pne_for_interval(i) — rather than the raw struct bytes. Two parameter
/// sets that resolve to the same chain therefore map to the same key even
/// when their representations differ (e.g. an explicit equal-split
/// interval_fractions vector vs the empty default, or distinct catalog
/// entries with identical numbers), and equal keys imply bit-identical
/// analysis results because the chains built from them are bit-identical.
util::Key128 chain_cache_key(const ClrChainParams& params);

/// Build and solve both chains for `params`: a one-element
/// analyze_clr_chain_batch call at group width 1. Memoized through the
/// global chain-solve cache (keyed by chain_cache_key) when caching is
/// enabled (util::cache_capacity() > 0); results are bit-identical either
/// way. For an uncached solve, call analyze_clr_chain_batch with
/// ChainBatchOptions{.use_cache = false}.
ClrChainAnalysis analyze_clr_chain(const ClrChainParams& params);

/// Counters of the process-wide chain-solve cache (zeros when disabled).
util::CacheStats chain_cache_stats();

/// Per-chain outcome of a batched analysis.
enum class ChainSolveStatus : std::uint8_t {
  kOk = 0,
  kSingular = 1,  ///< I - Q singular (non-absorbing chain); analysis zeroed
};

/// Tuning knobs for analyze_clr_chain_batch. Defaults are the production
/// configuration; tests and the benchmark override them to pin down one
/// variable at a time.
struct ChainBatchOptions {
  /// Lanes per kernel group; 0 picks markov::preferred_batch_width() for
  /// the active SIMD level (8 under AVX-512, else 4).
  std::size_t group_width = 0;
  /// Consult the chain-solve memo cache for hits and backfill solved
  /// misses. Off for raw-kernel benchmarking.
  bool use_cache = true;
};

/// Batched dense assembly: fill `batch` (already configure()d for
/// `lanes.size()` lanes) with the Fig. 3a timing (resp. 3b functional)
/// chain of each lane's parameters, lane-major. Every lane's Q / R /
/// residence values equal the oracle build_chain_reference(*lanes[l],
/// functional)'s matrices bit for bit (tests/oracle). All lanes must share
/// one size class (same `intervals`); pad lanes simply repeat a real
/// ClrChainParams pointer.
void assemble_clr_chain_batch(
    std::span<const ClrChainParams* const> lanes, bool functional,
    markov::ChainBatch& batch);

/// Analyze many configurations at once: consult the memo cache, dedupe
/// identical parameter sets (canonical Key128), partition the remaining
/// misses into size classes (same transient count), solve each class in
/// lane groups through markov::solve_row0_batch, and backfill the cache.
/// Results are positionally parallel to `params` and bit-identical at every
/// group width and on every SIMD dispatch path to the row-0 metrics of the
/// oracle's build_chain_reference chains (pinned by the differential tests).
///
/// A non-absorbing chain (singular I - Q) throws std::domain_error —
/// unless `status` is non-null, in which case no throw: (*status)[i]
/// reports per-chain outcomes and singular entries get a value-initialized
/// ClrChainAnalysis.
///
/// Instrumented via util::metrics: chain.batch.requests / dedupe_hits /
/// batches / lanes_filled / pad_lanes (cache hits: cache.chain_solve.hits).
std::vector<ClrChainAnalysis> analyze_clr_chain_batch(
    std::span<const ClrChainParams> params, const ChainBatchOptions& options = {},
    std::vector<ChainSolveStatus>* status = nullptr);

/// Sweep the checkpoint count 1..max_intervals (equal splits) and return the
/// interval count minimizing average execution time — the classic
/// checkpoint-placement question, answered through the same chains.
/// `params.intervals`/`interval_fractions` are ignored. Throws if every
/// candidate chain is non-absorbing.
struct CheckpointSweepResult {
  std::size_t best_intervals = 1;
  double best_avg_time_us = 0.0;
  std::vector<double> avg_time_per_intervals;  ///< index 0 = 1 interval
};
CheckpointSweepResult optimize_checkpoint_intervals(ClrChainParams params,
                                                    std::size_t max_intervals);

}  // namespace clrearly::reliability
