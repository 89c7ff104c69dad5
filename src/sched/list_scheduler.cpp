#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace clrearly::sched {

double Schedule::peak_power(
    const std::vector<TaskAssignment>& assignments) const {
  if (tasks.empty()) return 0.0;
  if (assignments.size() != tasks.size()) {
    throw std::invalid_argument("Schedule::peak_power: assignment size mismatch");
  }
  // Sweep start/end events; power changes only at task boundaries.
  struct Event {
    double time;
    double delta;
  };
  std::vector<Event> events;
  events.reserve(tasks.size() * 2);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    events.push_back({tasks[t].start_us, assignments[t].power_w});
    events.push_back({tasks[t].end_us, -assignments[t].power_w});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;  // process releases before acquisitions at ties
  });
  double current = 0.0;
  double peak = 0.0;
  for (const Event& e : events) {
    current += e.delta;
    peak = std::max(peak, current);
  }
  return peak;
}

double data_arrival_us(const app::TaskGraph& graph,
                       const platform::Interconnect& interconnect,
                       std::size_t src, std::size_t dst, double src_end_us,
                       std::size_t src_pe, std::size_t dst_pe) {
  if (!interconnect.models_communication() || src_pe == dst_pe) {
    return src_end_us;
  }
  const app::Edge* edge = graph.find_edge(src, dst);
  return src_end_us + interconnect.transfer_time_us(edge ? edge->data_kb : 0.0);
}

Schedule list_schedule(const app::TaskGraph& graph,
                       const std::vector<TaskAssignment>& assignments,
                       const std::vector<std::size_t>& priority_order,
                       std::size_t num_pes,
                       const platform::Interconnect& interconnect) {
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

  // Validate the permutation and build rank lookup (lower rank = earlier).
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
  // Bucket the tasks by PE up front; each bucket fills in execution order.
  schedule.pe_offsets.assign(num_pes + 1, 0);
  for (const TaskAssignment& asg : assignments) {
    ++schedule.pe_offsets[asg.pe + 1];
  }
  for (std::size_t p = 0; p < num_pes; ++p) {
    schedule.pe_offsets[p + 1] += schedule.pe_offsets[p];
  }
  schedule.pe_tasks.assign(n, 0);
  std::vector<std::size_t> pe_next(schedule.pe_offsets.begin(),
                                   schedule.pe_offsets.end() - 1);

  // Ready tasks as a min-heap of their ranks. Ranks are a permutation, so
  // the top is the unique highest-priority ready task.
  std::vector<std::size_t> ready;
  std::vector<std::size_t> unscheduled_preds(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    unscheduled_preds[t] = graph.predecessors(t).size();
    if (unscheduled_preds[t] == 0) ready.push_back(rank[t]);
  }
  const std::greater<std::size_t> later;
  std::make_heap(ready.begin(), ready.end(), later);
  std::vector<double> pe_free(num_pes, 0.0);
  std::vector<double> ready_time(n, 0.0);  // latest data arrival

  for (std::size_t scheduled = 0; scheduled < n; ++scheduled) {
    if (ready.empty()) {
      throw std::invalid_argument("list_schedule: graph contains a cycle");
    }
    std::pop_heap(ready.begin(), ready.end(), later);
    const std::size_t best = priority_order[ready.back()];
    ready.pop_back();

    const TaskAssignment& asg = assignments[best];
    const double start = std::max(pe_free[asg.pe], ready_time[best]);
    const double end = start + asg.exec_time_us;
    schedule.tasks[best] = ScheduledTask{start, end, asg.pe};
    schedule.pe_tasks[pe_next[asg.pe]++] = best;
    pe_free[asg.pe] = end;
    schedule.pe_busy_us[asg.pe] += asg.exec_time_us;
    schedule.makespan_us = std::max(schedule.makespan_us, end);
    for (std::size_t succ : graph.successors(best)) {
      const double arrival = data_arrival_us(graph, interconnect, best, succ,
                                             end, asg.pe,
                                             assignments[succ].pe);
      ready_time[succ] = std::max(ready_time[succ], arrival);
      if (--unscheduled_preds[succ] == 0) {
        ready.push_back(rank[succ]);
        std::push_heap(ready.begin(), ready.end(), later);
      }
    }
  }
  return schedule;
}

}  // namespace clrearly::sched
