#include "sim/schedule_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "sched/list_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/task_sampler.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace clrearly::sim {

namespace {

constexpr std::size_t kUnavailable = static_cast<std::size_t>(-1);

/// Workspace::running entry of a PE with no task running.
constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

/// Trials per parallel_for index. One thread runs a whole block, so it alone
/// writes that run of adjacent outcome slots, and one workspace serves all of
/// the block's trials.
constexpr std::size_t kTrialsPerBlock = 64;

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

/// The trial-invariant inputs of one simulate() call.
struct TrialContext {
  const app::TaskGraph& graph;
  const platform::Interconnect& interconnect;
  bool models_communication = false;
  std::vector<std::size_t> pred_count;  ///< per task
  /// Successor lists, flattened: task t's are succ[succ_begin[t]] up to
  /// succ[succ_begin[t + 1]], in TaskGraph::successors() order.
  std::vector<std::size_t> succ_begin;
  std::vector<std::size_t> succ;
  std::vector<double> zeta;  ///< normalized criticality per task
  std::size_t num_pes = 0;
  double deadline_us = 0.0;
};

/// One variant's per-task samplers, PEs and priority ranks.
struct VariantPlan {
  const SimVariant& variant;
  std::vector<TaskSampler> samplers;
  std::vector<std::size_t> pe;    ///< PE of each task
  std::vector<std::size_t> rank;  ///< position of each task in priority_order
};

/// The scratch state of one block of trials. Every trial resets what it
/// reads and leaves the ready heaps and the event queue empty, so after the
/// first trial of a block no trial allocates.
struct Workspace {
  Workspace(std::size_t num_tasks, std::size_t num_pes)
      : draws(num_tasks),
        pending(num_tasks),
        arrival(num_tasks),
        busy_until(num_pes),
        running(num_pes),
        ready(num_pes),
        mask(num_pes) {}

  std::vector<TaskTrial> draws;
  std::vector<std::size_t> pending;
  std::vector<double> arrival;
  /// Each PE's running task (kIdle when none) and its end time: the trial's
  /// pending completions.
  std::vector<double> busy_until;
  std::vector<std::size_t> running;
  /// Per-PE min-heaps of the priority ranks of ready tasks.
  std::vector<std::vector<std::size_t>> ready;
  /// Data arrivals later than the timestamp that produced them.
  EventQueue queue;
  std::vector<char> mask;  ///< the drawn PE-failure set of a failure trial
};

/// One full application run: sample every task's trial, then execute the
/// graph event-by-event.
TrialOutcome run_trial(const TrialContext& ctx, const VariantPlan& plan,
                       Workspace& ws, util::Rng& rng) {
  const std::size_t n = plan.samplers.size();

  // The fault process of a task is independent of when it runs, so all task
  // trials are drawn up front in task-id order — one fixed draw order per
  // stream, regardless of how the schedule unfolds.
  for (std::size_t t = 0; t < n; ++t) {
    ws.draws[t] = plan.samplers[t].sample(rng);
  }

  TrialOutcome out;
  for (std::size_t t = 0; t < n; ++t) {
    out.energy_uj += ws.draws[t].exec_time_us * plan.variant.tasks[t].power_w;
    out.faults += static_cast<double>(ws.draws[t].faults);
    out.rollbacks += static_cast<double>(ws.draws[t].rollbacks);
    if (ws.draws[t].corrupted) out.error_weight += ctx.zeta[t];
  }

  // Self-timed execution: tasks dispatch when their data has arrived and
  // their PE is free, lowest priority rank first. A task whose data arrives
  // at the current timestamp goes straight into its PE's ready heap; only
  // transfers that land later pass through the event queue.
  ws.pending = ctx.pred_count;
  std::fill(ws.arrival.begin(), ws.arrival.end(), 0.0);
  std::fill(ws.running.begin(), ws.running.end(), kIdle);
  ws.queue.clear();
  const auto make_ready = [&](std::size_t task) {
    std::vector<std::size_t>& heap = ws.ready[plan.pe[task]];
    heap.push_back(plan.rank[task]);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  const auto complete = [&](std::size_t task, double now) {
    const std::size_t pe = plan.pe[task];
    ws.running[pe] = kIdle;
    out.makespan_us = std::max(out.makespan_us, now);
    for (std::size_t k = ctx.succ_begin[task]; k < ctx.succ_begin[task + 1];
         ++k) {
      const std::size_t succ = ctx.succ[k];
      const double data_at =
          ctx.models_communication
              ? sched::data_arrival_us(ctx.graph, ctx.interconnect, task,
                                       succ, now, pe, plan.pe[succ])
              : now;
      ws.arrival[succ] = std::max(ws.arrival[succ], data_at);
      if (--ws.pending[succ] != 0) continue;
      if (ws.arrival[succ] == now) {
        make_ready(succ);
      } else {
        ws.queue.push({ws.arrival[succ], EventKind::kDataReady, succ});
      }
    }
  };

  for (std::size_t t = 0; t < n; ++t) {
    if (ws.pending[t] == 0) make_ready(t);
  }
  for (double now = 0.0;;) {
    // Every idle PE starts its lowest-rank ready task; the next timestamp
    // is the earliest end time or queued arrival.
    bool pending_event = !ws.queue.empty();
    double next = pending_event ? ws.queue.next_time_us()
                                : std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < ctx.num_pes; ++p) {
      std::vector<std::size_t>& heap = ws.ready[p];
      if (ws.running[p] == kIdle && !heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        const std::size_t task = plan.variant.priority_order[heap.back()];
        heap.pop_back();
        ws.running[p] = task;
        ws.busy_until[p] = now + ws.draws[task].exec_time_us;
      }
      if (ws.running[p] != kIdle) {
        pending_event = true;
        next = std::min(next, ws.busy_until[p]);
      }
    }
    if (!pending_event) break;
    now = next;
    // Apply every event at this timestamp before the next dispatch. Each
    // step is a max, a decrement, a PE release or a ready-heap insertion,
    // and these commute, so the ready set a PE chooses from never depends
    // on the order the events are applied in.
    for (std::size_t p = 0; p < ctx.num_pes; ++p) {
      if (ws.running[p] != kIdle && ws.busy_until[p] == now) {
        complete(ws.running[p], now);
      }
    }
    while (!ws.queue.empty() && ws.queue.next_time_us() == now) {
      make_ready(ws.queue.pop().task);
    }
  }

  if (ctx.deadline_us > 0.0) {
    out.deadline_miss = out.makespan_us > ctx.deadline_us;
  }
  return out;
}

}  // namespace

bool sim_results_identical(const SimResult& a, const SimResult& b) noexcept {
  return a.trials == b.trials &&                               //
         a.available_trials == b.available_trials &&           //
         a.availability == b.availability &&                   //
         a.availability_ci == b.availability_ci &&             //
         a.makespan_mean_us == b.makespan_mean_us &&           //
         a.makespan_stddev_us == b.makespan_stddev_us &&       //
         a.makespan_min_us == b.makespan_min_us &&             //
         a.makespan_max_us == b.makespan_max_us &&             //
         a.makespan_ci_us == b.makespan_ci_us &&               //
         a.error_prob == b.error_prob &&                       //
         a.error_ci == b.error_ci &&                           //
         a.energy_mean_uj == b.energy_mean_uj &&               //
         a.energy_stddev_uj == b.energy_stddev_uj &&           //
         a.energy_ci_uj == b.energy_ci_uj &&                   //
         a.deadline_us == b.deadline_us &&                     //
         a.deadline_miss_rate == b.deadline_miss_rate &&       //
         a.deadline_miss_ci == b.deadline_miss_ci &&           //
         a.mean_faults == b.mean_faults &&                     //
         a.mean_rollbacks == b.mean_rollbacks &&               //
         a.variant_trials == b.variant_trials;
}

void SimOptions::validate() const {
  if (trials == 0) {
    throw std::invalid_argument("simulate: trials must be positive");
  }
  if (!(deadline_us >= 0.0 && std::isfinite(deadline_us))) {
    throw std::invalid_argument(
        "simulate: deadline must be finite and non-negative");
  }
  for (double q : pe_failure_prob) {
    if (!(q >= 0.0 && q <= 1.0)) {
      throw std::invalid_argument(
          "simulate: PE failure probability outside [0, 1]");
    }
  }
}

SimResult simulate(const app::TaskGraph& graph,
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
  options.validate();
  if (!nominal && options.pe_failure_prob.size() != num_pes) {
    throw std::invalid_argument(
        "simulate: PE failure probability count mismatch");
  }

  // One validation pass per variant, precomputing its rank vector and
  // samplers; plus the mask table failure trials dispatch on.
  std::map<std::vector<char>, std::size_t> variant_of_mask;
  std::vector<VariantPlan> plans;
  plans.reserve(variants.size());
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
    VariantPlan& plan = plans.emplace_back(VariantPlan{variant, {}, {}, {}});
    plan.rank.assign(n, n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      const std::size_t task = variant.priority_order[pos];
      if (task >= n || plan.rank[task] != n) {
        throw std::invalid_argument(
            "simulate: priority order is not a permutation of task ids");
      }
      plan.rank[task] = pos;
    }
    plan.samplers.reserve(n);
    plan.pe.reserve(n);
    for (const SimTask& task : variant.tasks) {
      if (task.pe >= num_pes) {
        throw std::invalid_argument("simulate: PE index out of range");
      }
      if (mask[task.pe]) {
        throw std::invalid_argument(
            "simulate: variant maps a task onto a PE its own failure mask "
            "kills");
      }
      plan.samplers.emplace_back(task.chain);  // validates the chain params
      plan.pe.push_back(task.pe);
    }
    if (!variant_of_mask.emplace(std::move(mask), v).second) {
      throw std::invalid_argument("simulate: duplicate failure mask");
    }
  }
  // Reject cyclic graphs up front instead of stalling trials.
  (void)graph.topological_order();

  const platform::Interconnect& interconnect = architecture.interconnect();
  TrialContext ctx{graph,
                   interconnect,
                   interconnect.models_communication(),
                   {},
                   {},
                   {},
                   graph.normalized_criticality(),
                   num_pes,
                   options.deadline_us};
  for (std::size_t t = 0; t < n; ++t) {
    ctx.pred_count.push_back(graph.predecessors(t).size());
    ctx.succ_begin.push_back(ctx.succ.size());
    const std::vector<std::size_t>& succs = graph.successors(t);
    ctx.succ.insert(ctx.succ.end(), succs.begin(), succs.end());
  }
  ctx.succ_begin.push_back(ctx.succ.size());

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
  const std::size_t blocks =
      (options.trials + kTrialsPerBlock - 1) / kTrialsPerBlock;
  const auto t0 = std::chrono::steady_clock::now();
  {
    const util::TraceSpan span("sim.trial_batch");
    util::parallel_for(blocks, [&](std::size_t block) {
      Workspace ws(n, num_pes);
      const std::size_t end =
          std::min(options.trials, (block + 1) * kTrialsPerBlock);
      for (std::size_t i = block * kTrialsPerBlock; i < end; ++i) {
        // A local copy: drawing through streams[i] would write its state
        // back into a slot next to other threads' streams.
        util::Rng rng = streams[i];
        std::size_t v = 0;
        if (!nominal) {
          for (std::size_t p = 0; p < num_pes; ++p) {
            ws.mask[p] = rng.uniform() < options.pe_failure_prob[p] ? 1 : 0;
          }
          const auto it = variant_of_mask.find(ws.mask);
          if (it == variant_of_mask.end()) continue;  // unavailable
          v = it->second;
        }
        outcomes[i] = run_trial(ctx, plans[v], ws, rng);
        outcomes[i].variant = v;
      }
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

  {
    static util::Counter& runs_metric = util::metric_counter("sim.runs");
    static util::Counter& trials_metric = util::metric_counter("sim.trials");
    static util::Counter& misses_metric =
        util::metric_counter("sim.deadline_misses");
    static util::Counter& lost_metric =
        util::metric_counter("sim.unavailable_trials");
    runs_metric.add();
    trials_metric.add(options.trials);
    misses_metric.add(static_cast<std::uint64_t>(misses));
    lost_metric.add(options.trials - available);
    util::observe_seconds("sim.batch_seconds", elapsed_s);
  }

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

}  // namespace clrearly::sim
