// clrearly — command-line front end to the CL(R)Early toolchain.
//
//   clrearly generate --tasks 30 --types 10 --seed 5 --out app.json
//       Generate a TGFF-style synthetic application and save it.
//
//   clrearly info --app sobel [--dot graph.dot]
//       Summarize a model; optionally export the task graph as Graphviz.
//
//   clrearly tdse --app sobel --objectives 2 [--csv points.csv]
//       Task-level DSE: Pareto-filter every task type's configuration space.
//
//   clrearly dse --app synthetic:20 --flow proposed --min-frel 0.99
//                [--env 20] [--pop 100] [--gens 60] [--csv front.csv]
//                [--report] [--gantt]
//       System-level DSE with any of the paper's flows
//       (fcclr | pfclr | proposed | agnostic), or the permanent-fault
//       k-resilient flow (kresilient, with --k / --mission-hours).
//
// Application specs: "sobel", "mjpeg", "synthetic:<tasks>[:<seed>]", or a .json path
// (io/serialize format). Architecture specs: "default" or a .json path.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/characterizer.hpp"
#include "app/dot.hpp"
#include "app/mjpeg.hpp"
#include "app/sobel.hpp"
#include "core/baselines.hpp"
#include "core/feasibility.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "core/dse.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sim_bridge.hpp"
#include "sim/task_sampler.hpp"
#include "sim/validate.hpp"
#include "io/serialize.hpp"
#include "moea/hypervolume.hpp"
#include "platform/architecture.hpp"
#include "sched/timeline.hpp"
#include "server/server.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"
#include "util/observability.hpp"
#include "util/signal_guard.hpp"
#include "util/thread_pool.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

using namespace clrearly;

// The full argv of the process, stashed by main() so the run manifest can
// record the complete invocation (subcommand included), not just the
// subcommand's argument slice.
int g_argc = 0;
char** g_argv = nullptr;

/// Shared option prologue of every subcommand: --help, --threads, the
/// cache options and --metrics-out/--trace-out.
void declare_common(util::ArgParser& parser) {
  parser.flag("help", "show this help");
  util::add_threads_option(parser);
  util::add_cache_options(parser);
  util::add_observability_options(parser);
}

/// Parse and apply the common options. Returns false when --help was
/// requested (the help text has then already been printed; return 0).
bool apply_common(util::ArgParser& parser,
                  const std::vector<std::string>& args) {
  parser.parse(args);
  if (parser.has("help")) {
    std::printf("%s", parser.help().c_str());
    return false;
  }
  if (parser.has("threads")) {
    util::set_thread_count(parser.get_uint("threads"));
  }
  util::apply_cache_options(parser);
  util::apply_observability_options(parser, g_argc, g_argv);
  return true;
}

/// --name as an int no larger than `max`. Checked before the narrowing cast,
/// which would otherwise wrap an out-of-range value into a valid-looking one.
int get_int_at_most(const util::ArgParser& parser, const std::string& name,
                    int max) {
  const std::uint64_t value = parser.get_uint(name);
  if (value > static_cast<std::uint64_t>(max)) {
    throw std::invalid_argument("option --" + name + " must be at most " +
                                std::to_string(max));
  }
  return static_cast<int>(value);
}

int cmd_generate(const std::vector<std::string>& args) {
  util::ArgParser parser("clrearly generate",
                         "generate a synthetic application model");
  declare_common(parser);
  parser.option("tasks", "number of tasks", "20")
      .option("types", "number of task types", "10")
      .option("seed", "generator seed", "1")
      .option("out", "output JSON path", "app.json");
  if (!apply_common(parser, args)) return 0;

  const app::Application syn = app::make_synthetic_application(
      parser.get_uint("tasks"), parser.get_uint("types"),
      parser.get_uint("seed"));
  io::save_application(parser.get("out"), syn);
  std::printf("wrote %s: %zu tasks, %zu types, %zu edges\n",
              parser.get("out").c_str(), syn.graph.num_tasks(),
              syn.graph.num_types(), syn.graph.num_edges());
  return 0;
}

int cmd_info(const std::vector<std::string>& args) {
  util::ArgParser parser("clrearly info", "summarize a system model");
  declare_common(parser);
  parser.option("app", "application spec", "sobel")
      .option("arch", "architecture spec", "default")
      .option("dot", "write the task graph as Graphviz DOT to this path", "");
  if (!apply_common(parser, args)) return 0;

  const app::Application application =
      io::resolve_application(parser.get("app"));
  const platform::Architecture arch =
      io::resolve_architecture(parser.get("arch"));

  std::printf("application %s: %zu tasks, %zu types, %zu edges, period %.0f us\n",
              application.name.c_str(), application.graph.num_tasks(),
              application.graph.num_types(), application.graph.num_edges(),
              application.period_us);
  std::printf("  critical path: %zu tasks\n",
              application.graph.critical_path_length());
  for (std::size_t type = 0; type < application.impls.size(); ++type) {
    std::printf("  type %zu: %zu implementation(s)\n", type,
                application.impls[type].size());
  }
  std::printf("architecture: %zu PEs, %zu types\n", arch.num_pes(),
              arch.num_types());
  for (std::size_t t = 0; t < arch.num_types(); ++t) {
    const platform::PeType& type = arch.type(t);
    std::printf("  %-16s %-20s masking %.2f, beta %.1f, %zu DVFS mode(s), "
                "%zu instance(s)\n",
                type.name.c_str(), to_string(type.pe_class).c_str(),
                type.masking_factor, type.weibull_beta, type.dvfs.size(),
                arch.pes_of_type(t).size());
  }
  if (arch.interconnect().models_communication()) {
    std::printf("  interconnect: %.2f KB/us, %.2f us latency\n",
                arch.interconnect().bandwidth_kb_per_us,
                arch.interconnect().latency_us);
  }

  if (!parser.get("dot").empty()) {
    std::ofstream out(parser.get("dot"));
    app::write_dot(out, application.graph, application.name);
    std::printf("wrote %s\n", parser.get("dot").c_str());
  }
  return 0;
}

int cmd_tdse(const std::vector<std::string>& args) {
  util::ArgParser parser("clrearly tdse", "task-level design-space exploration");
  declare_common(parser);
  parser.option("app", "application spec", "sobel")
      .option("arch", "architecture spec", "default")
      .option("objectives", "TABLE IV ladder row (1-6)", "2")
      .option("env", "environmental fault-rate factor", "1")
      .option("csv", "write Pareto points to this CSV", "");
  if (!apply_common(parser, args)) return 0;

  const app::Application application =
      io::resolve_application(parser.get("app"));
  const platform::Architecture arch =
      io::resolve_architecture(parser.get("arch"));
  const core::Tdse tdse(
      core::make_condition_analyzer(parser.get_number("env")));
  const core::TdseObjectives objectives = core::TdseObjectives::table4_row(
      get_int_at_most(parser, "objectives", std::numeric_limits<int>::max()));

  const auto results = tdse.run_application(application, arch, objectives);
  util::TextTable table;
  table.header({"type", "enumerated", "pareto"});
  for (std::size_t type = 0; type < results.size(); ++type) {
    table.row(type, results[type].enumerated.size(),
              results[type].pareto.size());
  }
  table.print(std::cout);

  if (!parser.get("csv").empty()) {
    util::CsvWriter csv(parser.get("csv"));
    csv.row({"type", "impl", "pe_type", "hw", "ssw", "asw", "dvfs",
             "avg_exec_time_us", "err_prob", "mttf_hours", "power_w"});
    for (std::size_t type = 0; type < results.size(); ++type) {
      for (const core::TaskDesignPoint& p : results[type].pareto) {
        csv.field(type)
            .field(p.impl_index)
            .field(p.pe_type)
            .field(p.config.hw)
            .field(p.config.ssw)
            .field(p.config.asw)
            .field(p.config.dvfs)
            .field(p.metrics.avg_exec_time_us)
            .field(p.metrics.error_prob)
            .field(p.metrics.mttf_hours)
            .field(p.metrics.avg_power_w);
        csv.end_row();
      }
    }
    std::printf("wrote %s\n", parser.get("csv").c_str());
  }
  return 0;
}

int cmd_dse(const std::vector<std::string>& args) {
  util::ArgParser parser("clrearly dse", "system-level CLR-aware task mapping");
  declare_common(parser);
  parser.option("app", "application spec", "sobel")
      .option("arch", "architecture spec", "default")
      .option("flow", "fcclr | pfclr | proposed | agnostic | kresilient",
              "proposed")
      .option("pop", "GA population size", "100")
      .option("gens", "GA generations", "60")
      .option("seed", "GA seed", "1")
      .option("env", "environmental fault-rate factor", "1")
      .option("min-frel", "minimum functional reliability (0 disables)", "0")
      .option("max-makespan", "makespan limit in us (0 disables)", "0")
      .option("k", "kresilient: tolerated PE failures", "1")
      .option("mission-hours", "kresilient: mission time for the Weibull "
              "failure probabilities", "20000")
      .option("csv", "write the front to this CSV", "")
      .flag("report", "print per-task choices of the fastest design")
      .flag("gantt", "print the fastest design's schedule");
  if (!apply_common(parser, args)) return 0;

  const app::Application application =
      io::resolve_application(parser.get("app"));
  const platform::Architecture arch =
      io::resolve_architecture(parser.get("arch"));
  const reliability::TaskAnalyzer analyzer =
      core::make_condition_analyzer(parser.get_number("env"));
  const core::DseMethodology dse(application, arch, analyzer);

  core::DseOptions options;
  options.ga.population_size = parser.get_uint("pop");
  options.ga.generations = parser.get_uint("gens");
  options.seed = parser.get_uint("seed");
  if (parser.get_number("min-frel") > 0.0) {
    options.spec.min_functional_rel = parser.get_number("min-frel");
  }
  if (parser.get_number("max-makespan") > 0.0) {
    options.spec.max_makespan_us = parser.get_number("max-makespan");
  }

  const std::string flow = parser.get("flow");
  core::DseOutcome outcome;
  if (flow == "fcclr") {
    outcome = dse.run_fcclr(options);
  } else if (flow == "pfclr") {
    outcome = dse.run_pfclr(options);
  } else if (flow == "proposed") {
    outcome = dse.run_proposed(options);
  } else if (flow == "agnostic") {
    const core::AgnosticOutcome agnostic = core::run_agnostic(dse, options);
    outcome.front = agnostic.combined_front;
    outcome.evaluations = agnostic.evaluations;
  } else if (flow == "kresilient") {
    options.resilience.max_failures = parser.get_uint("k");
    options.resilience.mission_hours = parser.get_number("mission-hours");
    options.resilience.degraded_spec = options.spec;
    outcome = dse.run_kresilient(options);
  } else {
    std::fprintf(stderr, "unknown flow '%s'\n", flow.c_str());
    return 2;
  }

  std::printf("%s: %zu front points, %zu evaluations\n", flow.c_str(),
              outcome.front.size(), outcome.evaluations);
  util::TextTable table;
  table.header({"makespan (us)", "error prob"});
  std::size_t fastest = 0;
  for (std::size_t i = 0; i < outcome.front.size(); ++i) {
    table.row(outcome.front[i][0], outcome.front[i][1]);
    if (outcome.front[i][0] < outcome.front[fastest][0]) fastest = i;
  }
  table.print(std::cout);

  if (!parser.get("csv").empty()) {
    util::CsvWriter csv(parser.get("csv"));
    csv.row({"avg_makespan_us", "app_error_prob"});
    for (const auto& p : outcome.front) {
      csv.field(p[0]).field(p[1]);
      csv.end_row();
    }
    std::printf("wrote %s\n", parser.get("csv").c_str());
  }

  if ((parser.has("report") || parser.has("gantt")) &&
      !outcome.front_genomes.empty()) {
    const core::ClrMappingProblem problem(application, arch, analyzer,
                                          options.objectives, options.spec);
    if (parser.has("report")) {
      for (const auto& c : problem.report(outcome.front_genomes[fastest])) {
        std::printf("%-12s -> %-14s on PE%zu (%s)  %s\n", c.task_name.c_str(),
                    c.impl_name.c_str(), c.pe, c.pe_type_name.c_str(),
                    c.config_text.c_str());
      }
    }
    if (parser.has("gantt")) {
      sched::Schedule schedule;
      sched::estimate_qos(application, arch,
                          problem.decode(outcome.front_genomes[fastest]),
                          outcome.front_genomes[fastest].order, &schedule);
      std::printf("%s", sched::gantt_chart(schedule, application.graph,
                                           arch.num_pes())
                            .c_str());
    }
  }
  return 0;
}


int cmd_simulate(const std::vector<std::string>& args) {
  util::ArgParser parser(
      "clrearly simulate",
      "Monte Carlo schedule simulation of a DSE flow's Pareto front");
  declare_common(parser);
  parser.option("app", "application spec", "sobel")
      .option("arch", "architecture spec", "default")
      .option("flow", "fcclr | pfclr | proposed", "proposed")
      .option("pop", "GA population size", "60")
      .option("gens", "GA generations", "30")
      .option("seed", "GA seed", "1")
      .option("env", "environmental fault-rate factor", "1")
      .option("trials", "Monte Carlo trials per design point", "10000")
      .option("sim-seed", "simulator seed", "7")
      .option("points", "max front points to simulate (0 = all)", "0")
      .option("deadline", "deadline in us for miss accounting (0 disables)",
              "0")
      .option("csv", "write the comparison report to this CSV", "");
  if (!apply_common(parser, args)) return 0;

  // Checked before the flow runs, so a bad option fails fast.
  sim::SimOptions sim_options;
  sim_options.trials = parser.get_uint("trials");
  sim_options.seed = parser.get_uint("sim-seed");
  sim_options.deadline_us = parser.get_number("deadline");
  sim_options.validate();

  const app::Application application =
      io::resolve_application(parser.get("app"));
  const platform::Architecture arch =
      io::resolve_architecture(parser.get("arch"));
  const reliability::TaskAnalyzer analyzer =
      core::make_condition_analyzer(parser.get_number("env"));
  const core::DseMethodology dse(application, arch, analyzer);

  core::DseOptions options;
  options.ga.population_size = parser.get_uint("pop");
  options.ga.generations = parser.get_uint("gens");
  options.seed = parser.get_uint("seed");

  // Run the flow and build a problem in the *same encoding* as the returned
  // genomes (pfCLR fronts decode against the pfCLR problem over the same
  // tDSE points; fcclr and proposed fronts are full-configuration genomes).
  const std::string flow = parser.get("flow");
  core::DseOutcome outcome;
  std::unique_ptr<core::ClrMappingProblem> problem;
  if (flow == "fcclr" || flow == "proposed") {
    outcome = flow == "fcclr" ? dse.run_fcclr(options)
                              : dse.run_proposed(options);
    problem = std::make_unique<core::ClrMappingProblem>(
        application, arch, analyzer, options.objectives, options.spec);
  } else if (flow == "pfclr") {
    const std::vector<core::TdseResult> tdse = dse.run_tdse(options);
    outcome = dse.run_pfclr(options, tdse);
    std::vector<std::vector<core::TaskDesignPoint>> points;
    points.reserve(tdse.size());
    for (const core::TdseResult& r : tdse) points.push_back(r.pareto);
    problem = std::make_unique<core::ClrMappingProblem>(
        application, arch, analyzer, options.objectives, options.spec,
        std::move(points));
  } else {
    std::fprintf(stderr, "unknown flow '%s'\n", flow.c_str());
    return 2;
  }
  if (outcome.front_genomes.empty()) {
    std::fprintf(stderr, "flow produced no feasible front points\n");
    return 1;
  }

  std::size_t count = outcome.front_genomes.size();
  if (parser.get_uint("points") > 0) {
    count = std::min<std::size_t>(count, parser.get_uint("points"));
  }

  sim::ValidationReport report;
  for (std::size_t i = 0; i < count; ++i) {
    const core::MappingGenome& genome = outcome.front_genomes[i];
    const sched::QosMetrics analytic = problem->qos(genome);
    const sim::SimResult simulated =
        core::simulate_design_point(*problem, genome, sim_options);
    report.rows.push_back(sim::compare_design_point(
        flow + "#" + std::to_string(i), analytic, simulated));
  }

  util::TextTable table;
  table.header({"point", "makespan an/sim (us)", "delta", "ok",
                "err prob an/sim", "ok"});
  char buffer[64];
  for (const sim::ValidationRow& row : report.rows) {
    std::snprintf(buffer, sizeof buffer, "%.1f / %.1f",
                  row.analytic.makespan_us, row.simulated.makespan_mean_us);
    const std::string makespans = buffer;
    std::snprintf(buffer, sizeof buffer, "%.4g / %.4g",
                  row.analytic.error_prob, row.simulated.error_prob);
    table.row(row.label, makespans, row.makespan_delta_us,
              row.makespan_agrees ? "yes" : "NO", std::string(buffer),
              row.error_agrees ? "yes" : "NO");
  }
  table.print(std::cout);
  std::printf(
      "agreement: makespan %.0f%%, error prob %.0f%% (%zu points, %zu "
      "trials each)\n",
      100.0 * report.makespan_agreement(), 100.0 * report.error_agreement(),
      report.rows.size(), sim_options.trials);

  if (!parser.get("csv").empty()) {
    sim::write_validation_csv(parser.get("csv"), report);
    std::printf("wrote %s\n", parser.get("csv").c_str());
  }
  return 0;
}

int cmd_check(const std::vector<std::string>& args) {
  util::ArgParser parser("clrearly check",
                         "early-stage feasibility certificates (no GA)");
  declare_common(parser);
  parser.option("app", "application spec", "sobel")
      .option("arch", "architecture spec", "default")
      .option("env", "environmental fault-rate factor", "1")
      .option("min-frel", "minimum functional reliability (0 disables)", "0")
      .option("max-makespan", "makespan limit in us (0 disables)", "0");
  if (!apply_common(parser, args)) return 0;

  const app::Application application =
      io::resolve_application(parser.get("app"));
  const platform::Architecture arch =
      io::resolve_architecture(parser.get("arch"));
  sched::QosSpec spec;
  if (parser.get_number("min-frel") > 0.0) {
    spec.min_functional_rel = parser.get_number("min-frel");
  }
  if (parser.get_number("max-makespan") > 0.0) {
    spec.max_makespan_us = parser.get_number("max-makespan");
  }

  const core::FeasibilityReport report = core::assess_feasibility(
      application, arch,
      core::make_condition_analyzer(parser.get_number("env")), spec);

  util::TextTable table;
  table.header({"layer(s)", "max Fapp", "min makespan (us)",
                "Fapp floor ok", "deadline ok"});
  for (const auto& layer : report.layers) {
    table.row(layer.layer, layer.max_functional_rel, layer.min_makespan_us,
              layer.reliability_possible ? "yes" : "NO",
              layer.deadline_possible ? "yes" : "NO");
  }
  table.print(std::cout);
  std::printf("\nverdict: %s\n",
              report.possibly_feasible
                  ? "possibly feasible (bounds pass; run `clrearly dse`)"
                  : "INFEASIBLE (certified by mapping-independent bounds)");
  return report.possibly_feasible ? 0 : 3;
}


int cmd_export(const std::vector<std::string>& args) {
  util::ArgParser parser("clrearly export",
                         "write the built-in models as JSON files");
  declare_common(parser);
  parser.option("dir", "output directory", "models");
  if (!apply_common(parser, args)) return 0;
  const std::string dir = parser.get("dir");
  std::filesystem::create_directories(dir);
  io::save_architecture(dir + "/paper_platform.json",
                        platform::Architecture::paper_default());
  io::save_application(dir + "/sobel.json", app::make_sobel_application());
  io::save_application(dir + "/mjpeg.json", app::make_mjpeg_application());
  std::printf("wrote %s/{paper_platform,sobel,mjpeg}.json\n", dir.c_str());
  return 0;
}


int cmd_chain(const std::vector<std::string>& args) {
  util::ArgParser parser("clrearly chain",
                         "evaluate one CLR configuration through the Fig. 3 "
                         "Markov models");
  declare_common(parser);
  parser.option("exec-time", "useful execution time (us)", "1000")
      .option("lambda", "effective SEU rate (/us)", "3e-4")
      .option("hw-masking", "spatial-redundancy masking m_HW", "0")
      .option("impl-masking", "implicit SSW masking", "0")
      .option("coverage", "detection coverage cov_Det", "0")
      .option("tolerance", "tolerance success m_Tol", "0")
      .option("asw-masking", "information-redundancy masking m_ASW", "0")
      .option("intervals", "inter-checkpoint intervals", "1")
      .option("det-time", "detection time per interval (us)", "0")
      .option("tol-time", "tolerance/rollback time (us)", "0")
      .option("chk-time", "checkpoint time (us)", "0")
      .option("chk-err", "checkpoint corruption probability", "0")
      .flag("validate", "cross-check with 100k fault-injection runs")
      .flag("sweep", "also sweep 1..10 intervals for the optimal count");
  if (!apply_common(parser, args)) return 0;

  reliability::ClrChainParams params;
  params.exec_time_us = parser.get_number("exec-time");
  params.lambda_per_us = parser.get_number("lambda");
  params.hw_masking = parser.get_number("hw-masking");
  params.implicit_ssw_masking = parser.get_number("impl-masking");
  params.detection_coverage = parser.get_number("coverage");
  params.tolerance_success = parser.get_number("tolerance");
  params.asw_masking = parser.get_number("asw-masking");
  params.intervals = parser.get_uint("intervals");
  params.detection_time_us = parser.get_number("det-time");
  params.tolerance_time_us = parser.get_number("tol-time");
  params.checkpoint_time_us = parser.get_number("chk-time");
  params.checkpoint_error_prob = parser.get_number("chk-err");

  const reliability::ClrChainAnalysis analysis =
      reliability::analyze_clr_chain(params);
  std::printf("min execution time : %.3f us\n", analysis.min_exec_time_us);
  std::printf("avg execution time : %.3f us\n", analysis.avg_exec_time_us);
  std::printf("time spread (sigma): %.3f us\n", analysis.exec_time_stddev_us);
  std::printf("error probability  : %.6g\n", analysis.error_prob);

  if (parser.has("validate")) {
    const sim::InjectionResult injected =
        sim::inject_faults(params, 100000, 42);
    std::printf("fault injection    : avg time %.3f us, error rate %.6g "
                "(%zu runs, %.2f faults/run)\n",
                injected.mean_exec_time_us, injected.error_rate,
                injected.trials, injected.mean_faults_injected);
  }
  if (parser.has("sweep")) {
    const auto sweep = reliability::optimize_checkpoint_intervals(params, 10);
    std::printf("optimal intervals  : %zu (avg time %.3f us)\n",
                sweep.best_intervals, sweep.best_avg_time_us);
  }
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  util::ArgParser parser("clrearly serve",
                         "run the DSE-as-a-service HTTP daemon");
  declare_common(parser);
  parser.option("host", "listen address", "127.0.0.1")
      .option("port", "listen port (0 = pick an ephemeral port)", "8080")
      .option("workers", "concurrent DSE jobs", "2")
      .option("queue-depth", "max waiting jobs before 429", "16")
      .option("max-sessions", "model sessions kept warm (LRU)", "8")
      .option("spool", "spool job specs/results into this directory", "")
      .option("port-file", "write the bound port to this file once listening",
              "")
      .option("journal-compact-bytes",
              "journal size that triggers compaction (0 = never)", "1048576")
      .option("quota-rate",
              "per-client submissions/second before 429 (0 = no quotas)", "0")
      .option("quota-burst", "per-client submission burst allowance", "8")
      .option("keepalive-requests",
              "max requests served per keep-alive connection", "100")
      .option("idle-timeout-ms",
              "keep-alive idle timeout between requests", "5000");
  if (!apply_common(parser, args)) return 0;

  server::ServiceOptions service_options;
  service_options.workers = parser.get_uint("workers");
  service_options.queue_depth = parser.get_uint("queue-depth");
  service_options.max_sessions = parser.get_uint("max-sessions");
  service_options.spool_dir = parser.get("spool");
  service_options.journal_compact_bytes =
      parser.get_uint("journal-compact-bytes");
  service_options.quota_rate = parser.get_number("quota-rate");
  service_options.quota_burst = parser.get_number("quota-burst");
  server::DseService service(service_options);

  server::ServerOptions server_options;
  server_options.host = parser.get("host");
  server_options.port = get_int_at_most(parser, "port", 65535);
  server_options.max_requests_per_connection =
      parser.get_uint("keepalive-requests");
  server_options.idle_timeout_ms = get_int_at_most(
      parser, "idle-timeout-ms", std::numeric_limits<int>::max());
  server::HttpServer http(service, server_options);

  // A daemon drains on SIGINT/SIGTERM instead of dying mid-job; this
  // overrides the kFlushAndExit handler the common options may have
  // installed (the drain path below flushes via the normal exit hooks).
  util::install_signal_handlers(util::SignalMode::kNotifyOnly);

  http.start();
  std::printf("clrearly serve: listening on %s:%d (workers %zu, queue %zu)\n",
              server_options.host.c_str(), http.port(),
              service_options.workers, service_options.queue_depth);
  std::fflush(stdout);
  if (!parser.get("port-file").empty()) {
    std::ofstream out(parser.get("port-file"));
    out << http.port() << '\n';
  }

  while (!service.shutdown_requested() && !util::termination_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("clrearly serve: %s received, draining\n",
              service.shutdown_requested() ? "shutdown request" : "signal");
  std::fflush(stdout);
  http.stop();             // stop accepting connections
  service.shutdown(true);  // cancel queued jobs, drain running ones
  std::printf("clrearly serve: drained, exiting\n");
  return 0;
}

int cmd_version(const std::vector<std::string>&) {
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::printf("clrearly (CL(R)Early reference implementation)\n");
  std::printf("  build        : %s, C++%ld\n", build_type,
              __cplusplus / 100 % 100);
  std::printf("  wire format  : v%d\n", io::kWireFormatVersion);
  std::printf("  simd detected: %s\n",
              util::to_string(util::detected_simd_level()));
  std::printf("  simd active  : %s\n",
              util::to_string(util::active_simd_level()));
  return 0;
}

void print_usage() {
  std::printf(
      "clrearly — cross-layer reliability-aware early-stage DSE\n\n"
      "usage: clrearly <command> [options]\n\n"
      "commands:\n"
      "  generate   create a synthetic application model (JSON)\n"
      "  info       summarize an application/architecture (+DOT export)\n"
      "  tdse       task-level DSE with Pareto filtering\n"
      "  check      feasibility certificates for a QoS spec (no GA)\n"
      "  export     dump the built-in models as editable JSON\n"
      "  chain      Markov-model calculator for one CLR configuration\n"
      "  dse        system-level DSE (fcclr | pfclr | proposed | agnostic |\n"
      "             kresilient)\n"
      "  simulate   Monte Carlo schedule simulation of a flow's front\n"
      "  serve      DSE-as-a-service HTTP daemon (docs/SERVER.md)\n"
      "  version    build, SIMD and wire-format versions\n"
      "\nrun 'clrearly <command> --help' for per-command options\n");
}

}  // namespace

int main(int argc, char** argv) {
  g_argc = argc;
  g_argv = argv;
  util::set_log_level(util::LogLevel::Warn);
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);

  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "info") return cmd_info(args);
    if (command == "tdse") return cmd_tdse(args);
    if (command == "check") return cmd_check(args);
    if (command == "export") return cmd_export(args);
    if (command == "chain") return cmd_chain(args);
    if (command == "dse") return cmd_dse(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "version" || command == "--version") {
      return cmd_version(args);
    }
    if (command == "--help" || command == "help") {
      print_usage();
      return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
