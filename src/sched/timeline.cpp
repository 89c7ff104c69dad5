#include "sched/timeline.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace clrearly::sched {

std::string gantt_chart(const Schedule& schedule, const app::TaskGraph& graph,
                        std::size_t num_pes, int width) {
  if (schedule.tasks.empty() || schedule.tasks.size() != graph.num_tasks()) {
    throw std::invalid_argument("gantt_chart: schedule/graph mismatch");
  }
  if (width < 10) {
    throw std::invalid_argument("gantt_chart: width too small");
  }
  const double makespan = std::max(schedule.makespan_us, 1e-12);

  std::ostringstream oss;
  oss << "makespan " << util::format_compact(schedule.makespan_us) << " us\n";
  for (std::size_t pe = 0; pe < num_pes; ++pe) {
    std::string lane(static_cast<std::size_t>(width), '.');
    std::string legend;
    for (std::size_t t = 0; t < schedule.tasks.size(); ++t) {
      if (schedule.tasks[t].pe != pe) continue;
      const int begin = static_cast<int>(schedule.tasks[t].start_us /
                                         makespan * (width - 1));
      const int end =
          std::max(begin + 1, static_cast<int>(schedule.tasks[t].end_us /
                                               makespan * (width - 1)));
      const char mark = static_cast<char>('A' + (t % 26));
      for (int x = begin; x < end && x < width; ++x) {
        lane[static_cast<std::size_t>(x)] = mark;
      }
      legend += ' ';
      legend += mark;
      legend += '=';
      legend += graph.task(t).name;
    }
    oss << "PE" << pe << " |" << lane << "|" << legend << '\n';
  }
  return oss.str();
}

}  // namespace clrearly::sched
