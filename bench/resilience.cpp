// Permanent-fault resilience lane: run the k-resilient DSE on the seed
// Sobel system, fault-inject every point of the resulting front with the
// Monte Carlo permanent-fault injector, and require the injected Wilson
// 95% intervals to cover the analytic degraded-mode prediction
// (availability and criticality-weighted error are exact MC estimands on
// any graph). Also cross-checks the injector's determinism contract
// (bit-identical at 1 vs 4 threads) and reports how much of a
// resilience-agnostic fcCLR front survives the k-failure certification.
// Emits BENCH_resilience.json (fields explained in docs/RESILIENCE.md);
// the exit code gates on determinism and full front coverage.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "app/sobel.hpp"
#include "core/baselines.hpp"
#include "core/dse.hpp"
#include "core/experiment.hpp"
#include "core/resilience.hpp"
#include "core/sim_bridge.hpp"
#include "platform/architecture.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace clrearly;

  util::ArgParser args("bench_resilience",
                       "k-resilient DSE front vs Monte Carlo permanent-fault "
                       "injection (emits BENCH_resilience.json)");
  args.option("trials", "injection trials per design point", "10000")
      .option("sim-seed", "injector seed", "23")
      .option("seed", "GA seed", "9")
      .option("k", "tolerated permanent PE failures", "1")
      .option("mission-hours", "mission time for the Weibull failure model",
              "20000")
      .option("out", "output JSON path", "BENCH_resilience.json");
  if (!util::parse_standard_args(args, argc, argv, util::LogLevel::Warn)) {
    return 0;
  }

  const bool fast = core::fast_mode();
  const std::size_t trials =
      fast ? std::min<std::size_t>(args.get_uint("trials"), 2000)
           : args.get_uint("trials");
  const std::uint64_t sim_seed = args.get_uint("sim-seed");

  const core::DseMethodology dse(app::make_sobel_application(),
                                 platform::Architecture::paper_default(),
                                 core::bench_system_analyzer());
  core::DseOptions options = core::bench_options(args.get_uint("seed"));
  options.resilience.max_failures = args.get_uint("k");
  options.resilience.mission_hours = args.get_number("mission-hours");
  options.resilience.degraded_spec = options.spec;

  std::printf("=== resilience: sobel, k=%zu, %zu trials/point ===\n",
              options.resilience.max_failures, trials);

  const core::DseOutcome outcome = dse.run_kresilient(options);
  const core::ResilientProblem problem = dse.build_resilient_problem(options);
  if (outcome.front_genomes.empty()) {
    std::fprintf(stderr, "k-resilient front is empty\n");
    return 1;
  }

  // ---- Oracle: analytic prediction inside the injected Wilson interval ----
  std::size_t availability_covered = 0;
  std::size_t error_covered = 0;
  util::JsonArray points_json;
  for (std::size_t i = 0; i < outcome.front_genomes.size(); ++i) {
    const core::MappingGenome& genome = outcome.front_genomes[i];
    const core::ResilientProblem::AnalyticPrediction pred =
        problem.analytic_prediction(genome);
    const sim::SimResult injected =
        core::simulate_resilient_design_point(problem, genome, trials,
                                              sim_seed);
    const bool availability_ok =
        injected.availability_ci.contains(pred.availability);
    const bool error_ok = injected.error_ci.contains(pred.expected_error_prob);
    availability_covered += availability_ok ? 1 : 0;
    error_covered += error_ok ? 1 : 0;

    util::JsonObject point;
    point["analytic_availability"] = pred.availability;
    point["injected_availability"] = injected.availability;
    point["availability_ci_lo"] = injected.availability_ci.lo;
    point["availability_ci_hi"] = injected.availability_ci.hi;
    point["availability_covered"] = availability_ok;
    point["analytic_error_prob"] = pred.expected_error_prob;
    point["injected_error_prob"] = injected.error_prob;
    point["error_ci_lo"] = injected.error_ci.lo;
    point["error_ci_hi"] = injected.error_ci.hi;
    point["error_covered"] = error_ok;
    point["available_trials"] = injected.available_trials;
    points_json.emplace_back(std::move(point));
    std::printf("point %2zu: availability %.4f (MC [%.4f, %.4f]) %s, "
                "error %.3e (MC [%.3e, %.3e]) %s\n",
                i, pred.availability, injected.availability_ci.lo,
                injected.availability_ci.hi, availability_ok ? "ok" : "MISS",
                pred.expected_error_prob, injected.error_ci.lo,
                injected.error_ci.hi, error_ok ? "ok" : "MISS");
  }
  const std::size_t n = outcome.front_genomes.size();
  const bool covered = availability_covered == n && error_covered == n;

  // ---- Determinism: injector bit-identical at 1 vs 4 threads ----
  const core::MappingGenome& probe = outcome.front_genomes.front();
  util::set_thread_count(1);
  const sim::SimResult serial =
      core::simulate_resilient_design_point(problem, probe, trials, sim_seed);
  util::set_thread_count(4);
  const sim::SimResult parallel =
      core::simulate_resilient_design_point(problem, probe, trials, sim_seed);
  util::set_thread_count(0);
  const bool deterministic = sim::sim_results_identical(serial, parallel);
  std::printf("determinism (%zu trials, 1 vs 4 threads): %s\n", trials,
              deterministic ? "identical" : "DIVERGED");

  // ---- Baseline: how much of a k-agnostic front survives certification ----
  const core::ResilienceBaselineOutcome baseline =
      core::run_resilience_baseline(dse, options);
  std::printf(
      "resilience-agnostic fcCLR front: %zu/%zu points already "
      "k=%zu-resilient (%.0f%%)\n",
      baseline.survivor_count, baseline.nominal.front.size(),
      options.resilience.max_failures, 100.0 * baseline.survivor_fraction);

  std::printf("overall: %zu front points, availability covered %zu/%zu, "
              "error covered %zu/%zu%s\n",
              n, availability_covered, n, error_covered, n,
              covered ? "" : "  [ORACLE DISAGREEMENT]");

  util::JsonObject out_json;
  out_json["benchmark"] = "resilience";
  out_json["application"] = "sobel";
  out_json["max_failures"] = options.resilience.max_failures;
  out_json["mission_hours"] = options.resilience.mission_hours;
  out_json["trials_per_point"] = trials;
  out_json["sim_seed"] = sim_seed;
  out_json["front_points"] = n;
  out_json["points"] = std::move(points_json);
  out_json["availability_covered"] = availability_covered;
  out_json["error_covered"] = error_covered;
  out_json["covered"] = covered;
  out_json["deterministic"] = deterministic;
  out_json["trials_per_sec"] = serial.trials_per_sec;
  out_json["baseline_front_points"] = baseline.nominal.front.size();
  out_json["baseline_survivors"] = baseline.survivor_count;
  out_json["baseline_survivor_fraction"] = baseline.survivor_fraction;

  const std::string out = args.get("out");
  std::ofstream stream(out);
  stream << util::json_serialize(util::JsonValue(std::move(out_json))) << "\n";
  std::printf("[wrote %s]\n", out.c_str());
  return (deterministic && covered) ? 0 : 1;
}
