#include "core/sim_bridge.hpp"

#include <utility>
#include <vector>

namespace clrearly::core {

namespace {

/// One design point in simulator form: per-task fault-process parameters +
/// PE bindings + powers, and the genome's schedule priority order, run with
/// the PEs in `failed` lost.
sim::SimVariant make_sim_variant(const ClrMappingProblem& problem,
                                 const MappingGenome& genome,
                                 std::vector<char> failed = {}) {
  const app::Application& app = problem.application();
  const platform::Architecture& arch = problem.architecture();
  const std::vector<ClrMappingProblem::ResolvedTask> resolved =
      problem.resolve(genome);

  sim::SimVariant variant;
  variant.priority_order = genome.order;
  variant.failed = std::move(failed);
  variant.tasks.reserve(resolved.size());
  for (std::size_t t = 0; t < resolved.size(); ++t) {
    const std::size_t type = app.graph.task(t).type;
    const reliability::BaseImpl& impl =
        app.impls[type][resolved[t].impl_index];
    sim::SimTask task;
    task.chain = problem.analyzer().chain_params(
        impl, arch.type_of(resolved[t].pe), resolved[t].config);
    task.pe = resolved[t].pe;
    task.power_w = resolved[t].metrics.avg_power_w;
    variant.tasks.push_back(std::move(task));
  }
  return variant;
}

}  // namespace

sim::SimResult simulate_design_point(const ClrMappingProblem& problem,
                                     const MappingGenome& genome,
                                     const sim::SimOptions& options) {
  return sim::simulate(problem.application().graph, problem.architecture(),
                       {make_sim_variant(problem, genome)}, options);
}

sim::SimResult simulate_resilient_design_point(const ResilientProblem& problem,
                                               const MappingGenome& genome,
                                               std::size_t trials,
                                               std::uint64_t seed) {
  const ClrMappingProblem& nominal = problem.nominal();
  // variants[0] is the nominal mapping; variants[i > 0] the repaired
  // mapping for the failure set variants[i].failed. Failure sets without a
  // repair get no variant, so trials drawing one count as unavailable.
  std::vector<sim::SimVariant> variants = {make_sim_variant(nominal, genome)};
  for (const ResilientProblem::DegradedMode& mode :
       problem.degraded_modes(genome)) {
    if (mode.repairable) {
      variants.push_back(make_sim_variant(nominal, mode.mapping, mode.failed));
    }
  }
  sim::SimOptions options;
  options.trials = trials;
  options.seed = seed;
  options.pe_failure_prob = problem.failure_probabilities();
  return sim::simulate(nominal.application().graph, nominal.architecture(),
                       variants, options);
}

}  // namespace clrearly::core
