// Graphviz DOT export for task graphs — a debugging/documentation aid for
// the tool's users (dot -Tpng app.dot -o app.png).
#pragma once

#include <iosfwd>
#include <string>

#include "app/task_graph.hpp"

namespace clrearly::app {

/// Emit `graph` in DOT syntax. Nodes are labeled "name\n(type k)" and
/// colored by task type (cycling over a small palette); edges carry their
/// data volume when non-zero.
void write_dot(std::ostream& os, const TaskGraph& graph,
               const std::string& name = "taskgraph");

}  // namespace clrearly::app
