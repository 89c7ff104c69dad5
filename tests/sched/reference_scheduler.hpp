// Test oracle: the original O(T^2) list scheduler and makespan-spread
// backtrack, kept verbatim so the heap scheduler and the per-PE blocker
// lookup in src/ can be checked against them bit for bit. Edges are found by
// a linear scan over graph.edges(), independent of TaskGraph::find_edge.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "app/task_graph.hpp"
#include "platform/interconnect.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/qos.hpp"

namespace clrearly::sched::reference {

inline double data_arrival_us(const app::TaskGraph& graph,
                              const platform::Interconnect& interconnect,
                              std::size_t src, std::size_t dst,
                              double src_end_us, std::size_t src_pe,
                              std::size_t dst_pe) {
  if (!interconnect.models_communication() || src_pe == dst_pe) {
    return src_end_us;
  }
  const auto it = std::find_if(
      graph.edges().begin(), graph.edges().end(),
      [&](const app::Edge& e) { return e.src == src && e.dst == dst; });
  const double data_kb = it == graph.edges().end() ? 0.0 : it->data_kb;
  return src_end_us + interconnect.transfer_time_us(data_kb);
}

/// The schedule's tasks, makespan and per-PE busy time (pe_tasks and
/// pe_offsets are left empty).
inline Schedule list_schedule(const app::TaskGraph& graph,
                              const std::vector<TaskAssignment>& assignments,
                              const std::vector<std::size_t>& priority_order,
                              std::size_t num_pes,
                              const platform::Interconnect& interconnect = {}) {
  const std::size_t n = graph.num_tasks();
  if (assignments.size() != n) {
    throw std::invalid_argument("list_schedule: assignment count mismatch");
  }
  if (priority_order.size() != n) {
    throw std::invalid_argument("list_schedule: priority order size mismatch");
  }
  if (num_pes == 0) {
    throw std::invalid_argument("list_schedule: no PEs");
  }
  std::vector<std::size_t> rank(n, n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t task = priority_order[pos];
    if (task >= n || rank[task] != n) {
      throw std::invalid_argument(
          "list_schedule: priority order is not a permutation of task ids");
    }
    rank[task] = pos;
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (assignments[t].pe >= num_pes) {
      throw std::invalid_argument("list_schedule: PE index out of range");
    }
    if (assignments[t].exec_time_us < 0.0) {
      throw std::invalid_argument("list_schedule: negative execution time");
    }
  }

  Schedule schedule;
  schedule.tasks.assign(n, ScheduledTask{});
  schedule.pe_busy_us.assign(num_pes, 0.0);
  std::vector<std::size_t> unscheduled_preds(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    unscheduled_preds[t] = graph.predecessors(t).size();
  }
  std::vector<double> pe_free(num_pes, 0.0);
  std::vector<double> ready_time(n, 0.0);
  std::vector<bool> done(n, false);

  for (std::size_t scheduled = 0; scheduled < n; ++scheduled) {
    // Highest-priority ready task: a full O(T) scan per step.
    std::size_t best = n;
    for (std::size_t t = 0; t < n; ++t) {
      if (done[t] || unscheduled_preds[t] != 0) continue;
      if (best == n || rank[t] < rank[best]) best = t;
    }
    if (best == n) {
      throw std::invalid_argument("list_schedule: graph contains a cycle");
    }
    const TaskAssignment& asg = assignments[best];
    const double start = std::max(pe_free[asg.pe], ready_time[best]);
    const double end = start + asg.exec_time_us;
    schedule.tasks[best] = ScheduledTask{start, end, asg.pe};
    pe_free[asg.pe] = end;
    schedule.pe_busy_us[asg.pe] += asg.exec_time_us;
    schedule.makespan_us = std::max(schedule.makespan_us, end);
    done[best] = true;
    for (std::size_t succ : graph.successors(best)) {
      --unscheduled_preds[succ];
      const double arrival = data_arrival_us(graph, interconnect, best, succ,
                                             end, asg.pe,
                                             assignments[succ].pe);
      ready_time[succ] = std::max(ready_time[succ], arrival);
    }
  }
  return schedule;
}

/// estimate_qos's makespan spread: variances summed backwards along the
/// chain of blockers from the makespan-defining task. The PE blocker is the
/// first task id, in a scan over all tasks, ending within the tolerance of
/// the current start on the current PE.
inline double makespan_stddev_us(const app::TaskGraph& graph,
                                 const platform::Interconnect& icn,
                                 const std::vector<TaskDecision>& decisions,
                                 const Schedule& schedule) {
  const std::size_t n = graph.num_tasks();
  std::size_t current = 0;
  for (std::size_t t = 1; t < n; ++t) {
    if (schedule.tasks[t].end_us > schedule.tasks[current].end_us) {
      current = t;
    }
  }
  double variance = 0.0;
  for (std::size_t hops = 0; hops < n; ++hops) {
    const double s = decisions[current].metrics.exec_time_stddev_us;
    variance += s * s;
    const double start = schedule.tasks[current].start_us;
    if (start <= 1e-12) break;

    constexpr double kTieTol = 1e-6;
    std::size_t blocker = n;
    for (std::size_t p : graph.predecessors(current)) {
      const double arrival = data_arrival_us(
          graph, icn, p, current, schedule.tasks[p].end_us,
          schedule.tasks[p].pe, schedule.tasks[current].pe);
      if (std::abs(arrival - start) < kTieTol) {
        blocker = p;
        break;
      }
    }
    if (blocker == n) {
      for (std::size_t t = 0; t < n; ++t) {
        if (t == current || schedule.tasks[t].pe != schedule.tasks[current].pe) {
          continue;
        }
        if (std::abs(schedule.tasks[t].end_us - start) < kTieTol) {
          blocker = t;
          break;
        }
      }
    }
    if (blocker == n) break;
    current = blocker;
  }
  return std::sqrt(variance);
}

}  // namespace clrearly::sched::reference
