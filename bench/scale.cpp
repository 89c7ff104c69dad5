// End-to-end scaling benchmark of the single-population fcCLR search
// (docs/SCALING.md): synthetic TGFF graphs at 500/1000/2000 tasks, one
// NSGA-II population each. Per size it records the search wall time, the
// evaluation count and the true hypervolume-vs-evaluations curve (every
// generation's feasible first front under one reference point per size),
// ending in the final front's hypervolume. Emits BENCH_scale.json;
// scripts/check_bench.py validates the schema.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "app/characterizer.hpp"
#include "core/dse.hpp"
#include "core/experiment.hpp"
#include "moea/hypervolume.hpp"
#include "platform/architecture.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace {

using namespace clrearly;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kAppSeedBase = 900;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct CurvePoint {
  std::size_t evaluations = 0;
  double wall_seconds = 0.0;
  std::vector<moea::Objectives> front;  ///< feasible first front at snapshot
  double hypervolume = 0.0;             ///< filled once the reference is known
};

struct ScaleRun {
  double wall_seconds = 0.0;
  std::size_t evaluations = 0;
  std::vector<CurvePoint> curve;
};

/// One timed fcCLR search. The problem (Markov-table construction) is built
/// outside the timed region — its cost is reported separately by
/// bench_eval_throughput — so the clock measures the search itself.
ScaleRun timed_run(const core::DseMethodology& methodology,
                   core::DseOptions options) {
  const core::ClrMappingProblem problem =
      methodology.build_fcclr_problem(options);
  ScaleRun run;
  Clock::time_point start;  // set immediately before the search below
  options.ga.on_generation = [&](const moea::GenerationProgress& progress) {
    CurvePoint point;
    point.evaluations = progress.evaluations;
    point.wall_seconds = seconds_since(start);
    if (progress.front_points) point.front = *progress.front_points;
    run.curve.push_back(std::move(point));
  };
  start = Clock::now();
  const core::DseOutcome outcome = methodology.run_fcclr(options, problem);
  run.wall_seconds = seconds_since(start);
  run.evaluations = outcome.evaluations;
  return run;
}

util::JsonValue curve_json(const std::vector<CurvePoint>& curve) {
  util::JsonArray out;
  for (const CurvePoint& point : curve) {
    out.push_back(util::JsonValue(
        util::JsonObject{{"evaluations", point.evaluations},
                         {"wall_seconds", point.wall_seconds},
                         {"front_size", point.front.size()},
                         {"hypervolume", point.hypervolume}}));
  }
  return util::JsonValue(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_scale",
                       "single-population fcCLR scaling on 500/1000/2000-task "
                       "TGFF graphs (emits BENCH_scale.json)");
  args.option("population", "GA population size", "256")
      .option("generations", "GA generations", "60")
      .option("tasks", "comma-separated TGFF graph sizes", "500,1000,2000")
      .option("seed", "GA seed", "11")
      .flag("no-heuristic-seed",
            "start from a random population instead of the HEFT design")
      .option("out", "output JSON path", "BENCH_scale.json");
  if (!util::parse_standard_args(args, argc, argv, util::LogLevel::Warn)) {
    return 0;
  }

  moea::Nsga2Params ga;
  ga.population_size = args.get_uint("population");
  ga.generations = args.get_uint("generations");
  std::vector<std::size_t> sizes;
  {
    const std::string& csv = args.get("tasks");
    std::size_t begin = 0;
    while (begin <= csv.size()) {
      const std::size_t comma = std::min(csv.find(',', begin), csv.size());
      if (comma > begin) {
        sizes.push_back(std::stoul(csv.substr(begin, comma - begin)));
      }
      begin = comma + 1;
    }
    if (sizes.empty()) {
      std::fprintf(stderr, "bench_scale: --tasks lists no sizes\n");
      return 2;
    }
  }
  if (core::fast_mode()) {
    // CI smoke: one 500-task graph with a budget small enough for seconds.
    sizes = {500};
    ga.population_size = std::min<std::size_t>(ga.population_size, 24);
    ga.generations = std::min<std::size_t>(ga.generations, 10);
  }

  core::DseOptions options;
  options.ga = ga;
  options.seed = args.get_uint("seed");
  options.heuristic_seed = !args.has("no-heuristic-seed");

  const platform::Architecture arch = platform::Architecture::paper_default();
  const reliability::TaskAnalyzer analyzer =
      reliability::TaskAnalyzer::paper_default();

  std::printf("=== scale: fcCLR, pop %zu x %zu generations ===\n",
              ga.population_size, ga.generations);

  util::JsonArray size_reports;
  for (std::size_t tasks : sizes) {
    const app::Application application =
        app::make_synthetic_application(tasks, 10, kAppSeedBase + tasks);
    const core::DseMethodology methodology(application, arch, analyzer);
    ScaleRun run = timed_run(methodology, options);

    // Hypervolume under one reference shared by every snapshot of the run,
    // so the curve points are directly comparable.
    std::vector<std::vector<moea::Objectives>> fronts;
    for (const CurvePoint& point : run.curve) {
      if (!point.front.empty()) fronts.push_back(point.front);
    }
    const moea::Objectives reference = moea::common_reference(fronts);
    for (CurvePoint& point : run.curve) {
      if (!point.front.empty()) {
        point.hypervolume = moea::hypervolume(point.front, reference);
      }
    }
    const double hv = run.curve.back().hypervolume;
    std::printf("%zu tasks: %.2fs, %zu evals, hv %.4g\n", tasks,
                run.wall_seconds, run.evaluations, hv);

    size_reports.push_back(util::JsonValue(
        util::JsonObject{{"tasks", tasks},
                         {"wall_seconds", run.wall_seconds},
                         {"evaluations", run.evaluations},
                         {"hypervolume", hv},
                         {"curve", curve_json(run.curve)}}));
  }

  util::JsonObject report;
  report["benchmark"] = "scale";
  report["flow"] = "fcCLR";
  report["population"] = ga.population_size;
  report["generations"] = ga.generations;
  report["seed"] = options.seed;
  report["fast_mode"] = core::fast_mode();
  report["sizes"] = std::move(size_reports);

  const std::string out = args.get("out");
  std::ofstream stream(out);
  stream << util::json_serialize(util::JsonValue(std::move(report))) << "\n";
  std::printf("[wrote %s]\n", out.c_str());
  return 0;
}
