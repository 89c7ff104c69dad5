#include "app/dot.hpp"

#include <array>
#include <ostream>
#include <sstream>

namespace clrearly::app {

namespace {

constexpr std::array<const char*, 8> kPalette = {
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f",
    "#cab2d6", "#ffff99", "#1f78b4", "#33a02c"};

/// DOT string literals need escaped quotes/backslashes.
std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void write_dot(std::ostream& os, const TaskGraph& graph,
               const std::string& name) {
  os << "digraph \"" << escape(name) << "\" {\n";
  os << "  rankdir=TB;\n";
  os << "  node [shape=box, style=filled];\n";
  for (const Task& task : graph.tasks()) {
    os << "  t" << task.id << " [label=\"" << escape(task.name) << "\\n(type "
       << task.type << ")\", fillcolor=\""
       << kPalette[task.type % kPalette.size()] << "\"];\n";
  }
  for (const Edge& edge : graph.edges()) {
    os << "  t" << edge.src << " -> t" << edge.dst;
    if (edge.data_kb > 0.0) {
      std::ostringstream label;
      label << edge.data_kb << " KB";
      os << " [label=\"" << label.str() << "\"]";
    }
    os << ";\n";
  }
  os << "}\n";
}

}  // namespace clrearly::app
