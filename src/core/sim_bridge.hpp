// Bridge from DSE design points to Monte Carlo simulator inputs.
//
// A MappingGenome only encodes indices; the simulator needs the fully
// resolved fault-process parameters of every task. This module rebuilds them
// through the same TaskAnalyzer the analytic tables were computed with
// (TaskAnalyzer::chain_params), so the simulated process and the analytic
// Fig. 3 chains see byte-identical inputs — any disagreement between
// SimResult and QosMetrics is then attributable to the system-level
// aggregation approximations alone, never to diverging task models.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/encoding.hpp"
#include "core/problem.hpp"
#include "core/resilience.hpp"
#include "sim/schedule_sim.hpp"

namespace clrearly::core {

/// Resolve `genome` against `problem` into simulator inputs and run
/// sim::simulate on them (a nominal run). Works for both fcCLR and pfCLR
/// problems (pfCLR Pareto points carry their implementation index and CLR
/// configuration, which chain_params re-expands). Throws like
/// ClrMappingProblem::decode on malformed genomes.
sim::SimResult simulate_design_point(const ClrMappingProblem& problem,
                                     const MappingGenome& genome,
                                     const sim::SimOptions& options);

/// Expand a k-resilient `genome` into the nominal mapping plus every
/// repairable degraded mode as a sim::SimVariant and inject permanent PE
/// losses at the problem's own failure probabilities (a failure run).
/// Throws like ClrMappingProblem::decode on malformed genomes.
sim::SimResult simulate_resilient_design_point(const ResilientProblem& problem,
                                               const MappingGenome& genome,
                                               std::size_t trials,
                                               std::uint64_t seed);

}  // namespace clrearly::core
