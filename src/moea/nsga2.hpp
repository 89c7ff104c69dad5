// NSGA-II engine, genome-agnostic.
//
// The paper implements its GA-based DSE with DEAP/PYGMO (tournament size 5,
// crossover probability 0.8, mutation probability 0.05). This is the same
// algorithm family: fast non-dominated sorting, crowding-distance diversity,
// elitist (mu + lambda) survivor selection and Deb's constrained dominance
// for the QoS limits of Eq. 5. Problem specifics (the Fig. 5 encoding) enter
// exclusively through the Nsga2Ops callbacks, and directed seeding — the
// backbone of the proposed pfCLR -> fcCLR flow — through the `seeds`
// argument of run_nsga2.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "moea/operators.hpp"
#include "moea/pareto.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace clrearly::moea {

/// Result of evaluating one genome: objective vector (minimized) and total
/// constraint violation (0 = feasible).
struct Evaluation {
  Objectives objectives;
  double violation = 0.0;
};

/// Per-generation convergence snapshot handed to Nsga2Params::on_generation.
/// Fired once per generation from already-computed telemetry (and once more
/// after the final generation), so observing progress costs nothing beyond
/// the callback itself.
struct GenerationProgress {
  std::size_t generation = 0;   ///< completed generations so far (0 = initial)
  std::size_t generations = 0;  ///< total planned generations
  std::size_t evaluations = 0;  ///< cumulative fitness evaluations
  std::size_t front_size = 0;   ///< current first-front size
  double hv_proxy = 0.0;        ///< bounding-box hypervolume proxy
  /// Objective vectors of the *feasible* members of the current first front
  /// (so it can be one shorter than front_size while the search is still
  /// infeasible). Non-owning and valid only for the duration of the
  /// callback — observers that need the snapshot later (bench_scale's
  /// hypervolume-vs-evaluations curves) must copy it.
  const std::vector<Objectives>* front_points = nullptr;
};

/// Progress observer. Must not touch the RNG or mutate search state — the
/// hook is a pure observer, so hooked and unhooked runs are bit-identical.
/// Throwing from the hook aborts the run (the exception propagates out of
/// run_nsga2) — this is the sanctioned early-termination/cancellation path
/// for long-running jobs.
using ProgressHook = std::function<void(const GenerationProgress&)>;

struct Nsga2Params {
  std::size_t population_size = 100;
  std::size_t generations = 60;
  double crossover_prob = 0.8;  ///< paper Section VI-A
  /// Probability that an offspring undergoes the mutation operator at all.
  /// Defaults to 1: the CLR encoding's operator is itself probabilistic
  /// per task (see mutation_indpb), matching DEAP's mutpb/indpb split.
  double mutation_prob = 1.0;
  /// Per-task mutation probability handed to the problem's mutation
  /// operator (the paper's 0.05, DEAP indpb convention).
  double mutation_indpb = 0.05;
  std::size_t tournament_k = 5;  ///< paper Section V-C

  /// Optional per-generation progress observer (see GenerationProgress).
  /// Null by default; never serialized as part of any wire format.
  ProgressHook on_generation;

  void validate() const {
    if (population_size < 2) {
      throw std::invalid_argument("Nsga2Params: population too small");
    }
    if (tournament_k == 0) {
      throw std::invalid_argument("Nsga2Params: tournament size must be >= 1");
    }
    if (crossover_prob < 0.0 || crossover_prob > 1.0 || mutation_prob < 0.0 ||
        mutation_prob > 1.0 || mutation_indpb < 0.0 || mutation_indpb > 1.0) {
      throw std::invalid_argument("Nsga2Params: probabilities outside [0,1]");
    }
  }
};

/// Problem plug-in: genome construction, variation and evaluation.
template <typename Genome>
struct Nsga2Ops {
  std::function<Genome(util::Rng&)> create;
  std::function<std::pair<Genome, Genome>(const Genome&, const Genome&,
                                          util::Rng&)>
      crossover;
  std::function<void(Genome&, util::Rng&)> mutate;
  std::function<Evaluation(const Genome&)> evaluate;

  /// Optional content hash + equality. When both are provided, each
  /// evaluation batch is deduplicated before dispatch: genomes `equal` to an
  /// earlier batch member reuse its evaluation instead of being evaluated
  /// again (hash groups candidates, equality confirms them, so hash
  /// collisions merely cost a comparison). Evaluation must be a pure
  /// function of the genome — the same contract the parallel evaluation
  /// engine already relies on — which makes deduplicated runs bit-identical
  /// to exhaustive ones.
  std::function<std::uint64_t(const Genome&)> hash;
  std::function<bool(const Genome&, const Genome&)> equal;
};

template <typename Genome>
struct EvaluatedGenome {
  Genome genome;
  Evaluation eval;
};

template <typename Genome>
struct Nsga2Result {
  std::vector<EvaluatedGenome<Genome>> population;  ///< final population
  std::vector<std::size_t> front;  ///< indices of the first (feasible) front
  std::size_t evaluations = 0;     ///< total fitness evaluations performed

  /// Objective vectors of the final front.
  std::vector<Objectives> front_objectives() const {
    std::vector<Objectives> out;
    out.reserve(front.size());
    for (std::size_t i : front) out.push_back(population[i].eval.objectives);
    return out;
  }
};

/// Parent-selection ranking: NSGA-II rank (front index) and crowding
/// distance for every population member.
struct RankCrowding {
  std::vector<std::size_t> rank;
  std::vector<double> crowding;
};
RankCrowding rank_and_crowding(const std::vector<Objectives>& points,
                               const std::vector<double>& violations);

/// Elitist survivor selection: choose `target` of the given points by front
/// rank, breaking the last front by descending crowding distance.
std::vector<std::size_t> survivor_selection(
    const std::vector<Objectives>& points,
    const std::vector<double>& violations, std::size_t target);

namespace detail {

/// Evaluate `genomes` concurrently (index-sharded over the global thread
/// pool) and append them to `population` and the parallel `points` /
/// `violations` arrays. Evaluation is pure — it never touches the RNG — so
/// each result lands in its own slot and the outcome is bit-identical to a
/// serial evaluation loop at any thread count.
///
/// When ops.hash/ops.equal are provided the batch is deduplicated first:
/// only the first occurrence of each distinct genome is dispatched and its
/// evaluation is fanned back out to the duplicates (offspring batches of a
/// converged GA repeat genomes heavily). `evaluations` always counts the
/// *logical* evaluations (`genomes.size()`), so evaluation budgets and
/// determinism checks are unaffected by deduplication or caching.
template <typename Genome>
void evaluate_append(const Nsga2Ops<Genome>& ops, std::vector<Genome> genomes,
                     std::vector<EvaluatedGenome<Genome>>& population,
                     std::vector<Objectives>& points,
                     std::vector<double>& violations,
                     std::size_t& evaluations) {
  // owner[i] == index of the first batch member equal to genomes[i].
  std::vector<std::size_t> owner(genomes.size());
  std::vector<std::size_t> unique;
  unique.reserve(genomes.size());
  if (ops.hash && ops.equal) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
    buckets.reserve(genomes.size());
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      std::vector<std::size_t>& bucket = buckets[ops.hash(genomes[i])];
      owner[i] = i;
      for (std::size_t j : bucket) {
        if (ops.equal(genomes[j], genomes[i])) {
          owner[i] = j;
          break;
        }
      }
      if (owner[i] == i) {
        bucket.push_back(i);
        unique.push_back(i);
      }
    }
  } else {
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      owner[i] = i;
      unique.push_back(i);
    }
  }

  std::vector<Evaluation> evals(genomes.size());
  util::parallel_for(unique.size(), [&](std::size_t k) {
    const std::size_t i = unique[k];
    evals[i] = ops.evaluate(genomes[i]);
  });
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    if (owner[i] != i) evals[i] = evals[owner[i]];
  }
  evaluations += genomes.size();
  {
    // Registry lookup once per process; per batch it's two striped adds.
    static util::Counter& evals_metric =
        util::metric_counter("nsga2.evaluations");
    static util::Counter& dedupe_metric =
        util::metric_counter("nsga2.dedupe_hits");
    evals_metric.add(genomes.size());
    dedupe_metric.add(genomes.size() - unique.size());
  }
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    points.push_back(evals[i].objectives);
    violations.push_back(evals[i].violation);
    population.push_back({std::move(genomes[i]), std::move(evals[i])});
  }
}

/// Bounding-box volume of the feasible rank-0 points: the product over
/// objectives of (max - min) across the front. A cheap convergence proxy
/// for per-generation monitoring — it tracks front *extent*, not true
/// hypervolume (no reference point, no dominated-volume accounting), but
/// costs O(front * m) and needs no extra sorting. 0 for fronts of fewer
/// than two points.
inline double front_bbox_volume(const std::vector<Objectives>& points,
                                const std::vector<std::size_t>& rank,
                                const std::vector<double>& violations) {
  std::size_t members = 0;
  Objectives lo;
  Objectives hi;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (rank[i] != 0 || violations[i] > 0.0) continue;
    if (members == 0) {
      lo = points[i];
      hi = points[i];
    } else {
      for (std::size_t m = 0; m < points[i].size(); ++m) {
        lo[m] = std::min(lo[m], points[i][m]);
        hi[m] = std::max(hi[m], points[i][m]);
      }
    }
    ++members;
  }
  if (members < 2) return 0.0;
  double volume = 1.0;
  for (std::size_t m = 0; m < lo.size(); ++m) volume *= hi[m] - lo[m];
  return volume;
}

}  // namespace detail

/// Run NSGA-II start to finish over a single population.
///
/// Every generation is two phases: a serial *variation* phase (selection,
/// crossover, mutation — the only RNG consumers, drawn in the exact order
/// the historical serial loop used) followed by a parallel *evaluation*
/// phase over the whole offspring batch. Fronts and evaluation counts are
/// therefore bit-identical across thread counts.
///
/// `seeds` pre-loads the initial population (truncated to the population
/// size; the remainder is filled by ops.create) — this implements the
/// paper's directed seeding of fcCLR with pfCLR's front.
template <typename Genome>
Nsga2Result<Genome> run_nsga2(const Nsga2Params& params,
                              const Nsga2Ops<Genome>& ops, util::Rng& rng,
                              std::vector<Genome> seeds = {}) {
  params.validate();
  if (!ops.create || !ops.crossover || !ops.mutate || !ops.evaluate) {
    throw std::invalid_argument("run_nsga2: all ops callbacks are required");
  }

  Nsga2Result<Genome> result;
  auto& population = result.population;
  population.reserve(params.population_size * 2);
  // Objective / violation arrays are kept in lock-step with the population
  // (evaluation results only ever get appended or selected, never changed),
  // so nothing is rebuilt from scratch between phases.
  std::vector<Objectives> points;
  std::vector<double> violations;
  points.reserve(params.population_size * 2);
  violations.reserve(params.population_size * 2);

  std::vector<Genome> batch;
  batch.reserve(params.population_size);
  for (std::size_t i = 0; i < params.population_size; ++i) {
    batch.push_back((i < seeds.size()) ? std::move(seeds[i]) : ops.create(rng));
  }
  detail::evaluate_append(ops, std::move(batch), population, points,
                          violations, result.evaluations);

  // Registry lookups once per instantiation; the entries are shared by name.
  static util::Counter& generations_metric =
      util::metric_counter("nsga2.generations");
  static util::Gauge& front_size_metric =
      util::metric_gauge("nsga2.front_size");
  static util::Gauge& hv_proxy_metric = util::metric_gauge("nsga2.hv_proxy");

  // Scratch buffers for survivor selection, reused across generations.
  std::vector<EvaluatedGenome<Genome>> next;
  std::vector<Objectives> next_points;
  std::vector<double> next_violations;
  next.reserve(params.population_size);
  next_points.reserve(params.population_size);
  next_violations.reserve(params.population_size);

  for (std::size_t gen = 0; gen < params.generations; ++gen) {
    const util::TraceSpan gen_span("nsga2.generation");
    generations_metric.add();

    const RankCrowding rc = rank_and_crowding(points, violations);

    // Per-generation convergence telemetry from already-computed data:
    // first-front size and the bounding-box hypervolume proxy. Pure reads —
    // never feeds back into selection or the RNG.
    {
      std::size_t front_size = 0;
      for (std::size_t r : rc.rank) front_size += (r == 0) ? 1 : 0;
      const double hv_proxy =
          detail::front_bbox_volume(points, rc.rank, violations);
      front_size_metric.set(static_cast<double>(front_size));
      hv_proxy_metric.set(hv_proxy);
      if (util::trace_enabled()) {
        util::trace_counter("nsga2.front_size",
                            static_cast<double>(front_size));
        util::trace_counter("nsga2.hv_proxy", hv_proxy);
      }
      if (params.on_generation) {
        std::vector<Objectives> snapshot;
        for (std::size_t i = 0; i < points.size(); ++i) {
          if (rc.rank[i] == 0 && violations[i] == 0.0) {
            snapshot.push_back(points[i]);
          }
        }
        params.on_generation(GenerationProgress{gen, params.generations,
                                                result.evaluations,
                                                front_size, hv_proxy,
                                                &snapshot});
      }
    }

    auto better = [&](std::size_t a, std::size_t b) {
      if (rc.rank[a] != rc.rank[b]) return rc.rank[a] < rc.rank[b];
      return rc.crowding[a] > rc.crowding[b];
    };

    // Variation phase (lambda = mu), serial and RNG-ordered.
    batch.clear();
    batch.reserve(params.population_size);
    while (batch.size() < params.population_size) {
      const std::size_t pa = tournament_select(
          params.population_size, params.tournament_k, rng, better);
      const std::size_t pb = tournament_select(
          params.population_size, params.tournament_k, rng, better);
      Genome ca = population[pa].genome;
      Genome cb = population[pb].genome;
      if (rng.bernoulli(params.crossover_prob)) {
        auto [xa, xb] = ops.crossover(ca, cb, rng);
        ca = std::move(xa);
        cb = std::move(xb);
      }
      if (rng.bernoulli(params.mutation_prob)) ops.mutate(ca, rng);
      if (rng.bernoulli(params.mutation_prob)) ops.mutate(cb, rng);

      batch.push_back(std::move(ca));
      if (batch.size() < params.population_size) {
        batch.push_back(std::move(cb));
      }
    }

    // Evaluation phase over the whole batch, then (mu + lambda) elitist
    // survival over the combined arrays.
    detail::evaluate_append(ops, std::move(batch), population, points,
                            violations, result.evaluations);
    const std::vector<std::size_t> keep =
        survivor_selection(points, violations, params.population_size);
    next.clear();
    next_points.clear();
    next_violations.clear();
    for (std::size_t i : keep) {
      next.push_back(std::move(population[i]));
      next_points.push_back(std::move(points[i]));
      next_violations.push_back(violations[i]);
    }
    population.swap(next);
    points.swap(next_points);
    violations.swap(next_violations);
  }

  const auto fronts = non_dominated_sort(points, violations);
  result.front = fronts.empty() ? std::vector<std::size_t>{} : fronts.front();
  if (params.on_generation) {
    // Final snapshot after the last survivor selection, so observers always
    // see generation == generations exactly once per completed run.
    std::vector<std::size_t> rank(points.size(), 1);
    for (std::size_t i : result.front) rank[i] = 0;
    std::vector<Objectives> snapshot;
    for (std::size_t i : result.front) {
      if (violations[i] == 0.0) snapshot.push_back(points[i]);
    }
    params.on_generation(GenerationProgress{
        params.generations, params.generations, result.evaluations,
        result.front.size(),
        detail::front_bbox_volume(points, rank, violations), &snapshot});
  }
  return result;
}

}  // namespace clrearly::moea
