// Schedule presentation: a fixed-width text Gantt chart (used by the CLI
// and the examples, and handy for quick inspection).
#pragma once

#include <string>

#include "sched/list_scheduler.hpp"

namespace clrearly::sched {

/// Render the schedule as a text Gantt chart, one lane per PE, `width`
/// characters across the makespan. Task marks cycle A..Z; a legend maps the
/// marks back to task names. Throws std::invalid_argument for empty
/// schedules or width < 10.
std::string gantt_chart(const Schedule& schedule, const app::TaskGraph& graph,
                        std::size_t num_pes, int width = 60);

}  // namespace clrearly::sched
