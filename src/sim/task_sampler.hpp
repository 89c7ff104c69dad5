// Per-task Monte Carlo trial sampling for the schedule simulator.
//
// One TaskTrial is a single simulated execution of one task under its fully
// resolved CLR configuration: per inter-checkpoint interval, draw the fault
// arrival, flip the layer masking / detection / tolerance coins, roll back
// on successful tolerance, pay the checkpoint costs. This simulates the
// *process* the Fig. 3 chains model rather than walking their transition
// matrices, so it is the independent oracle for the analytic solution: the
// schedule simulator threads individual outcomes through the task graph,
// and inject_faults() aggregates many trials of a single task. Both take
// reliability::ClrChainParams, so any input the analytic chains accept is
// sampled here without re-deriving the scaling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "reliability/clr_chain_builder.hpp"
#include "util/rng.hpp"

namespace clrearly::sim {

/// Outcome of one simulated execution of one task.
struct TaskTrial {
  double exec_time_us = 0.0;    ///< wall time including detection/rollback/
                                ///< checkpoint overheads
  bool corrupted = false;       ///< an error escaped every CLR layer
  std::size_t faults = 0;       ///< raw fault events during the run
  std::size_t rollbacks = 0;    ///< successful tolerance actions
};

/// Samples TaskTrials for one (implementation, PE, CLR configuration)
/// triple. Validates the parameters and precomputes every interval's length
/// and fault probability once at construction; sample() is then
/// allocation-free and cheap enough to call millions of times.
class TaskSampler {
 public:
  /// Throws like ClrChainParams::validate() on malformed parameters.
  explicit TaskSampler(reliability::ClrChainParams params);

  /// One simulated execution, consuming draws from `rng`. Deterministic for
  /// a given RNG state. Runaway configurations (which the analytic model
  /// rejects as non-absorbing) abort the offending interval after an
  /// internal retry cap and report the run as corrupted.
  TaskTrial sample(util::Rng& rng) const noexcept;

  const reliability::ClrChainParams& params() const noexcept {
    return params_;
  }

 private:
  /// One inter-checkpoint interval: its useful execution time and the
  /// probability that a fault arrives during it.
  struct Interval {
    double time_us = 0.0;
    double p_fault = 0.0;
  };

  reliability::ClrChainParams params_;
  std::vector<Interval> intervals_;  ///< one per ICI, in execution order
};

/// Aggregate statistics of many simulated executions of one task.
struct InjectionResult {
  std::size_t trials = 0;
  double mean_exec_time_us = 0.0;     ///< average simulated completion time
  double error_rate = 0.0;            ///< fraction of runs ending corrupted
  double mean_faults_injected = 0.0;  ///< raw fault events per run
  double mean_rollbacks = 0.0;        ///< successful tolerance actions per run
};

/// Run `trials` TaskSampler::sample() executions of the task described by
/// `params` over one Rng(seed). Deterministic for a given seed. Throws like
/// ClrChainParams::validate() on bad inputs, and std::invalid_argument for
/// zero trials.
InjectionResult inject_faults(const reliability::ClrChainParams& params,
                              std::size_t trials, std::uint64_t seed);

}  // namespace clrearly::sim
