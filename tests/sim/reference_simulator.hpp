// Test oracle: sim::simulate as it was before the trial loop was
// made allocation-free, kept verbatim so sim::simulate can be checked
// against it bit for bit. Each trial allocates its own vectors and event
// queue, scans a per-PE ready list for the lowest rank, and sends every
// data arrival through the event queue; sample_task is the sampler's
// original loop, which recomputes each interval's fault probability per
// trial. Metrics and trace spans are left out.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "app/task_graph.hpp"
#include "platform/architecture.hpp"
#include "sched/list_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/schedule_sim.hpp"
#include "sim/task_sampler.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::sim::reference {

inline TaskTrial sample_task(const reliability::ClrChainParams& params,
                             util::Rng& rng) noexcept {
  // The fault_injection tests pin the aggregate statistics of this process
  // against the analytic chains.
  constexpr std::size_t kMaxAttemptsPerInterval = 1'000'000;

  TaskTrial trial;
  for (std::size_t i = 0; i < params.intervals; ++i) {
    const double t_ici = params.interval_time(i);
    const double p_fault = 1.0 - std::exp(-params.lambda_per_us * t_ici);

    bool interval_done = false;
    for (std::size_t attempt = 0;
         attempt < kMaxAttemptsPerInterval && !interval_done; ++attempt) {
      // Useful execution plus the always-on detection pass.
      trial.exec_time_us += t_ici + params.detection_time_us;

      if (!rng.bernoulli(p_fault)) {
        interval_done = true;  // clean execution
        break;
      }
      ++trial.faults;

      // Hardware spatial redundancy out-votes the fault?
      if (rng.bernoulli(params.hw_masking)) {
        interval_done = true;
        break;
      }
      // Implicit system-software masking?
      if (rng.bernoulli(params.implicit_ssw_masking)) {
        interval_done = true;
        break;
      }
      // Detection.
      if (rng.bernoulli(params.detection_coverage)) {
        trial.exec_time_us += params.tolerance_time_us;
        if (rng.bernoulli(params.tolerance_success)) {
          ++trial.rollbacks;
          continue;  // roll back: re-execute this interval
        }
      }
      // Undetected or tolerance failed: the ASW layer is the last line.
      if (!rng.bernoulli(params.asw_masking)) {
        trial.corrupted = true;
      }
      interval_done = true;  // execution proceeds either way
    }
    if (!interval_done) {
      // Retry cap exhausted — treat as a failed run.
      trial.corrupted = true;
      break;
    }

    // Checkpoint between intervals.
    if (i + 1 < params.intervals) {
      trial.exec_time_us += params.checkpoint_time_us;
      if (rng.bernoulli(params.checkpoint_error_prob)) {
        trial.corrupted = true;  // snapshot corrupted (Fig. 3b dotted edge)
      }
    }
  }
  return trial;
}

inline constexpr std::size_t kUnavailable = static_cast<std::size_t>(-1);

/// Everything one trial contributes to the aggregate — written to slot
/// `trial` of a pre-sized vector, so parallel execution is bit-identical to
/// serial (the ThreadPool per-index contract).
struct TrialOutcome {
  /// Index of the executed variant; kUnavailable when no variant covered
  /// the trial's drawn PE-failure set (nothing ran).
  std::size_t variant = kUnavailable;
  double makespan_us = 0.0;
  double error_weight = 0.0;  ///< sum of zeta_t over corrupted tasks
  double energy_uj = 0.0;
  double faults = 0.0;
  double rollbacks = 0.0;
  bool deadline_miss = false;
};

/// One full application run: sample every task's trial, then execute the
/// graph event-by-event.
inline TrialOutcome run_trial(const app::TaskGraph& graph,
                              const platform::Interconnect& interconnect,
                              const std::vector<SimTask>& tasks,
                              const std::vector<TaskSampler>& samplers,
                              const std::vector<std::size_t>& rank,
                              const std::vector<double>& zeta,
                              std::size_t num_pes, double deadline_us,
                              util::Rng& rng) {
  const std::size_t n = tasks.size();

  // The fault process of a task is independent of when it runs, so all task
  // trials are drawn up front in task-id order — one fixed draw order per
  // stream, regardless of how the schedule unfolds.
  std::vector<TaskTrial> draws(n);
  for (std::size_t t = 0; t < n; ++t) draws[t] = sample_task(samplers[t].params(), rng);

  TrialOutcome out;
  for (std::size_t t = 0; t < n; ++t) {
    out.energy_uj += draws[t].exec_time_us * tasks[t].power_w;
    out.faults += static_cast<double>(draws[t].faults);
    out.rollbacks += static_cast<double>(draws[t].rollbacks);
    if (draws[t].corrupted) out.error_weight += zeta[t];
  }

  // Self-timed execution: tasks dispatch when their data has arrived and
  // their PE is free, lowest priority rank first.
  EventQueue queue;
  std::vector<std::size_t> pending(n);
  std::vector<double> arrival(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    pending[t] = graph.predecessors(t).size();
    if (pending[t] == 0) queue.push({0.0, EventKind::kDataReady, t});
  }
  std::vector<bool> pe_idle(num_pes, true);
  std::vector<std::vector<std::size_t>> ready(num_pes);

  while (!queue.empty()) {
    const double now = queue.next_time_us();
    // Drain every event at this timestamp before dispatching, so the set of
    // ready tasks a PE chooses from never depends on event pop order.
    while (!queue.empty() && queue.next_time_us() == now) {
      const Event event = queue.pop();
      if (event.kind == EventKind::kComplete) {
        pe_idle[tasks[event.task].pe] = true;
        out.makespan_us = std::max(out.makespan_us, now);
        for (std::size_t succ : graph.successors(event.task)) {
          arrival[succ] = std::max(
              arrival[succ],
              sched::data_arrival_us(graph, interconnect, event.task, succ,
                                     now, tasks[event.task].pe,
                                     tasks[succ].pe));
          if (--pending[succ] == 0) {
            queue.push({arrival[succ], EventKind::kDataReady, succ});
          }
        }
      } else {
        ready[tasks[event.task].pe].push_back(event.task);
      }
    }
    for (std::size_t p = 0; p < num_pes; ++p) {
      if (!pe_idle[p] || ready[p].empty()) continue;
      std::size_t best = 0;
      for (std::size_t i = 1; i < ready[p].size(); ++i) {
        if (rank[ready[p][i]] < rank[ready[p][best]]) best = i;
      }
      const std::size_t task = ready[p][best];
      ready[p][best] = ready[p].back();
      ready[p].pop_back();
      pe_idle[p] = false;
      queue.push({now + draws[task].exec_time_us, EventKind::kComplete, task});
    }
  }

  if (deadline_us > 0.0) out.deadline_miss = out.makespan_us > deadline_us;
  return out;
}

inline SimResult simulate(const app::TaskGraph& graph,
                          const platform::Architecture& architecture,
                          const std::vector<SimVariant>& variants,
                          const SimOptions& options) {
  const std::size_t n = graph.num_tasks();
  const std::size_t num_pes = architecture.num_pes();
  const bool nominal = options.pe_failure_prob.empty();
  if (variants.empty()) {
    throw std::invalid_argument("simulate: no variants");
  }
  if (nominal && variants.size() != 1) {
    throw std::invalid_argument(
        "simulate: several variants need pe_failure_prob");
  }
  if (options.trials == 0) {
    throw std::invalid_argument("simulate: trials must be positive");
  }
  if (!nominal && options.pe_failure_prob.size() != num_pes) {
    throw std::invalid_argument(
        "simulate: PE failure probability count mismatch");
  }
  for (double q : options.pe_failure_prob) {
    if (!(q >= 0.0 && q <= 1.0)) {
      throw std::invalid_argument(
          "simulate: PE failure probability outside [0, 1]");
    }
  }

  // One validation pass per variant, precomputing its rank vector and
  // samplers; plus the mask table failure trials dispatch on.
  std::map<std::vector<char>, std::size_t> variant_of_mask;
  std::vector<std::vector<std::size_t>> ranks(variants.size());
  std::vector<std::vector<TaskSampler>> samplers(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const SimVariant& variant = variants[v];
    std::vector<char> mask = variant.failed;
    if (mask.empty()) mask.assign(num_pes, 0);
    if (mask.size() != num_pes) {
      throw std::invalid_argument("simulate: failure mask size mismatch");
    }
    if (v == 0 &&
        std::any_of(mask.begin(), mask.end(), [](char f) { return f != 0; })) {
      throw std::invalid_argument(
          "simulate: variant 0 must carry the no-failure mask");
    }
    if (variant.tasks.size() != n) {
      throw std::invalid_argument("simulate: task count mismatch");
    }
    if (variant.priority_order.size() != n) {
      throw std::invalid_argument("simulate: priority order size mismatch");
    }
    ranks[v].assign(n, n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      const std::size_t task = variant.priority_order[pos];
      if (task >= n || ranks[v][task] != n) {
        throw std::invalid_argument(
            "simulate: priority order is not a permutation of task ids");
      }
      ranks[v][task] = pos;
    }
    samplers[v].reserve(n);
    for (const SimTask& task : variant.tasks) {
      if (task.pe >= num_pes) {
        throw std::invalid_argument("simulate: PE index out of range");
      }
      if (mask[task.pe]) {
        throw std::invalid_argument(
            "simulate: variant maps a task onto a PE its own failure mask "
            "kills");
      }
      samplers[v].emplace_back(task.chain);  // validates the chain parameters
    }
    if (!variant_of_mask.emplace(std::move(mask), v).second) {
      throw std::invalid_argument("simulate: duplicate failure mask");
    }
  }
  // Reject cyclic graphs up front instead of stalling trials.
  (void)graph.topological_order();

  const std::vector<double> zeta = graph.normalized_criticality();
  const platform::Interconnect& interconnect = architecture.interconnect();

  // One child stream per trial, split off serially — stream i is the same
  // object no matter which thread later consumes it. Inside each stream the
  // draw order is fixed: in a failure run first one uniform per PE in PE-id
  // order (the mission survival draws), then — only if the drawn failure
  // set is covered — the executed variant's task trials.
  util::Rng root(options.seed);
  std::vector<util::Rng> streams;
  streams.reserve(options.trials);
  for (std::size_t i = 0; i < options.trials; ++i) {
    streams.push_back(root.split());
  }

  std::vector<TrialOutcome> outcomes(options.trials);
  const auto t0 = std::chrono::steady_clock::now();
  {
    util::parallel_for(options.trials, [&](std::size_t i) {
      util::Rng& rng = streams[i];
      std::size_t v = 0;
      if (!nominal) {
        std::vector<char> mask(num_pes, 0);
        for (std::size_t p = 0; p < num_pes; ++p) {
          mask[p] = rng.uniform() < options.pe_failure_prob[p] ? 1 : 0;
        }
        const auto it = variant_of_mask.find(mask);
        if (it == variant_of_mask.end()) return;  // unavailable: nothing runs
        v = it->second;
      }
      outcomes[i] =
          run_trial(graph, interconnect, variants[v].tasks, samplers[v],
                    ranks[v], zeta, num_pes, options.deadline_us, rng);
      outcomes[i].variant = v;
    });
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Serial aggregation in trial order over the available trials —
  // identical whatever the thread count.
  SimResult result;
  result.trials = options.trials;
  result.deadline_us = options.deadline_us;
  result.variant_trials.assign(variants.size(), 0);
  double error_weight = 0.0;
  double misses = 0.0;
  for (const TrialOutcome& o : outcomes) {
    if (o.variant == kUnavailable) continue;
    ++result.variant_trials[o.variant];
    ++result.available_trials;
    if (o.deadline_miss) misses += 1.0;
  }
  const std::size_t available = result.available_trials;

  result.availability =
      static_cast<double>(available) / static_cast<double>(options.trials);
  result.availability_ci =
      util::wilson_interval_95(static_cast<double>(available), options.trials);
  result.trials_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(options.trials) / elapsed_s : 0.0;
  if (available == 0) return result;

  const double inv_n = 1.0 / static_cast<double>(available);
  result.makespan_min_us = std::numeric_limits<double>::infinity();
  result.makespan_max_us = -std::numeric_limits<double>::infinity();
  for (const TrialOutcome& o : outcomes) {
    if (o.variant == kUnavailable) continue;
    result.makespan_mean_us += o.makespan_us * inv_n;
    result.energy_mean_uj += o.energy_uj * inv_n;
    result.mean_faults += o.faults * inv_n;
    result.mean_rollbacks += o.rollbacks * inv_n;
    error_weight += o.error_weight;
    result.makespan_min_us = std::min(result.makespan_min_us, o.makespan_us);
    result.makespan_max_us = std::max(result.makespan_max_us, o.makespan_us);
  }
  if (available > 1) {
    double makespan_m2 = 0.0;
    double energy_m2 = 0.0;
    for (const TrialOutcome& o : outcomes) {
      if (o.variant == kUnavailable) continue;
      const double dm = o.makespan_us - result.makespan_mean_us;
      const double de = o.energy_uj - result.energy_mean_uj;
      makespan_m2 += dm * dm;
      energy_m2 += de * de;
    }
    const double inv_n1 = 1.0 / static_cast<double>(available - 1);
    result.makespan_stddev_us = std::sqrt(makespan_m2 * inv_n1);
    result.energy_stddev_uj = std::sqrt(energy_m2 * inv_n1);
  }
  result.makespan_ci_us = util::confidence_interval_95(
      result.makespan_mean_us, result.makespan_stddev_us, available);
  result.energy_ci_uj = util::confidence_interval_95(
      result.energy_mean_uj, result.energy_stddev_uj, available);
  // Per-trial error weights are zeta-normalized into [0, 1], so the sum is
  // mathematically <= trials — but the serial accumulation can land an ulp
  // above it, which wilson_interval_95 now rejects. Clamp the rounding
  // noise, not real accounting bugs (those exceed trials by whole weights).
  error_weight = std::min(error_weight, static_cast<double>(available));
  result.error_prob = error_weight * inv_n;
  result.error_ci = util::wilson_interval_95(error_weight, available);
  if (options.deadline_us > 0.0) {
    result.deadline_miss_rate = misses * inv_n;
    result.deadline_miss_ci = util::wilson_interval_95(misses, available);
  }
  return result;
}

}  // namespace clrearly::sim::reference
