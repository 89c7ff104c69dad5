// Priority-list scheduling of a task graph onto a fixed task-to-PE binding.
//
// The GA chromosome encodes the schedule implicitly as the ordering of task
// sub-sequences (Section V-C); the scheduler realizes it: among ready tasks
// (all predecessors finished) the one earliest in the priority order starts
// next on its bound PE, at max(PE-free time, latest data arrival). Data
// arrival includes the interconnect's transfer time when the architecture
// enables the communication model (see list_schedule). Ready tasks wait in a
// min-heap keyed on priority rank, so one schedule costs O((T + E) log T).
#pragma once

#include <cstddef>
#include <vector>

#include "app/task_graph.hpp"
#include "platform/interconnect.hpp"

namespace clrearly::sched {

/// Per-task inputs to the scheduler: the binding and the (already
/// CLR-adjusted) expected execution time and average power.
struct TaskAssignment {
  std::size_t pe = 0;
  double exec_time_us = 0.0;
  double power_w = 0.0;
};

/// Start/end of one task in the computed schedule (SST_t / SET_t).
struct ScheduledTask {
  double start_us = 0.0;
  double end_us = 0.0;
  std::size_t pe = 0;
};

struct Schedule {
  std::vector<ScheduledTask> tasks;  ///< indexed by task id
  double makespan_us = 0.0;          ///< Sapp = max SET_t
  std::vector<double> pe_busy_us;    ///< accumulated busy time per PE
  /// Task ids grouped by PE in execution order: PE p ran
  /// pe_tasks[pe_offsets[p] .. pe_offsets[p + 1]). End times never decrease
  /// along one PE's range, so estimate_qos finds the task that kept a PE
  /// busy until a given start by binary search: the lowest id among the
  /// other tasks on that PE whose end lies within 1e-6 us of the start
  /// (with zero-length tasks there can be several).
  std::vector<std::size_t> pe_tasks;
  std::vector<std::size_t> pe_offsets;  ///< num_pes + 1 entries

  /// Peak instantaneous power: max over time of the summed power of
  /// concurrently executing tasks (TABLE III, Eq. 4).
  double peak_power(const std::vector<TaskAssignment>& assignments) const;
};

/// Compute the schedule. `priority_order` must be a permutation of all task
/// ids; `assignments` must bind every task to a PE < num_pes. Throws
/// std::invalid_argument on malformed input.
///
/// Communication (the paper's future-work extension): a dependency whose
/// producer and consumer sit on *different* PEs delays the consumer's ready
/// time by the interconnect's transfer time for the edge's data volume;
/// co-located tasks communicate through local memory for free. The default
/// interconnect models no communication (the paper's base abstraction).
Schedule list_schedule(const app::TaskGraph& graph,
                       const std::vector<TaskAssignment>& assignments,
                       const std::vector<std::size_t>& priority_order,
                       std::size_t num_pes,
                       const platform::Interconnect& interconnect = {});

/// Arrival time at task `dst` of the data produced by task `src` finishing
/// at `src_end_us`: co-located tasks communicate for free, cross-PE
/// dependencies pay the interconnect's transfer time for the edge's data
/// volume (nothing when the model is disabled). Shared by the list
/// scheduler, the QoS critical-path walk and the Monte Carlo schedule
/// simulator so all three price communication identically.
double data_arrival_us(const app::TaskGraph& graph,
                       const platform::Interconnect& interconnect,
                       std::size_t src, std::size_t dst, double src_end_us,
                       std::size_t src_pe, std::size_t dst_pe);

}  // namespace clrearly::sched
