#include "app/task_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace clrearly::app {

std::size_t TaskGraph::add_task(std::size_t type, std::string name,
                                double criticality) {
  if (criticality < 0.0) {
    throw std::invalid_argument("TaskGraph: criticality must be non-negative");
  }
  const std::size_t id = tasks_.size();
  tasks_.push_back(Task{id, type, std::move(name), criticality});
  preds_.emplace_back();
  succs_.emplace_back();
  first_out_.push_back(kNoEdge);
  return id;
}

void TaskGraph::add_edge(std::size_t src, std::size_t dst, double data_kb) {
  if (src >= tasks_.size() || dst >= tasks_.size()) {
    throw std::out_of_range("TaskGraph::add_edge: unknown task");
  }
  if (src == dst) {
    throw std::invalid_argument("TaskGraph::add_edge: self-loop");
  }
  if (data_kb < 0.0) {
    throw std::invalid_argument("TaskGraph::add_edge: negative data volume");
  }
  if (find_edge(src, dst) != nullptr) return;
  next_out_.push_back(first_out_[src]);
  first_out_[src] = edges_.size();
  edges_.push_back(Edge{src, dst, data_kb});
  succs_[src].push_back(dst);
  preds_[dst].push_back(src);
}

const Edge* TaskGraph::find_edge(std::size_t src, std::size_t dst) const {
  if (src >= tasks_.size()) return nullptr;
  for (std::size_t e = first_out_[src]; e != kNoEdge; e = next_out_[e]) {
    if (edges_[e].dst == dst) return &edges_[e];
  }
  return nullptr;
}

std::size_t TaskGraph::num_types() const noexcept {
  std::size_t n = 0;
  for (const Task& t : tasks_) n = std::max(n, t.type + 1);
  return n;
}

const Task& TaskGraph::task(std::size_t id) const {
  if (id >= tasks_.size()) throw std::out_of_range("TaskGraph::task");
  return tasks_[id];
}

const std::vector<std::size_t>& TaskGraph::predecessors(std::size_t id) const {
  if (id >= tasks_.size()) throw std::out_of_range("TaskGraph::predecessors");
  return preds_[id];
}

const std::vector<std::size_t>& TaskGraph::successors(std::size_t id) const {
  if (id >= tasks_.size()) throw std::out_of_range("TaskGraph::successors");
  return succs_[id];
}

std::vector<std::size_t> TaskGraph::sources() const {
  std::vector<std::size_t> out;
  for (const Task& t : tasks_) {
    if (preds_[t.id].empty()) out.push_back(t.id);
  }
  return out;
}

std::vector<std::size_t> TaskGraph::sinks() const {
  std::vector<std::size_t> out;
  for (const Task& t : tasks_) {
    if (succs_[t.id].empty()) out.push_back(t.id);
  }
  return out;
}

std::vector<std::size_t> TaskGraph::topological_order() const {
  std::vector<std::size_t> in_degree(tasks_.size(), 0);
  for (const Edge& e : edges_) ++in_degree[e.dst];

  std::vector<std::size_t> frontier;
  for (std::size_t id = 0; id < tasks_.size(); ++id) {
    if (in_degree[id] == 0) frontier.push_back(id);
  }

  std::vector<std::size_t> order;
  order.reserve(tasks_.size());
  // Process in id order within the frontier for determinism.
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::size_t id = frontier[head];
    order.push_back(id);
    for (std::size_t succ : succs_[id]) {
      if (--in_degree[succ] == 0) frontier.push_back(succ);
    }
  }
  if (order.size() != tasks_.size()) {
    throw std::invalid_argument("TaskGraph: graph contains a cycle");
  }
  return order;
}

std::size_t TaskGraph::critical_path_length() const {
  const std::vector<std::size_t> order = topological_order();
  std::vector<std::size_t> depth(tasks_.size(), 1);
  std::size_t longest = tasks_.empty() ? 0 : 1;
  for (std::size_t id : order) {
    for (std::size_t succ : succs_[id]) {
      depth[succ] = std::max(depth[succ], depth[id] + 1);
      longest = std::max(longest, depth[succ]);
    }
  }
  return longest;
}

std::vector<double> TaskGraph::normalized_criticality() const {
  std::vector<double> zeta(tasks_.size(), 0.0);
  double total = 0.0;
  for (const Task& t : tasks_) total += t.criticality;
  if (total <= 0.0) {
    // Degenerate all-zero criticality: treat tasks as equally critical.
    const double uniform = tasks_.empty() ? 0.0 : 1.0 / static_cast<double>(tasks_.size());
    for (double& z : zeta) z = uniform;
    return zeta;
  }
  for (const Task& t : tasks_) zeta[t.id] = t.criticality / total;
  return zeta;
}

void TaskGraph::validate() const {
  if (tasks_.empty()) {
    throw std::invalid_argument("TaskGraph: no tasks");
  }
  for (std::size_t id = 0; id < tasks_.size(); ++id) {
    if (tasks_[id].id != id) {
      throw std::invalid_argument("TaskGraph: task id mismatch");
    }
  }
  (void)topological_order();  // throws on cycles
}

void Application::validate() const {
  graph.validate();
  if (period_us <= 0.0) {
    throw std::invalid_argument("Application: period must be positive");
  }
  const std::size_t types = graph.num_types();
  if (impls.size() < types) {
    throw std::invalid_argument(
        "Application: missing implementation set for some task type");
  }
  for (std::size_t type = 0; type < types; ++type) {
    if (impls[type].empty()) {
      throw std::invalid_argument("Application: task type " +
                                  std::to_string(type) +
                                  " has no implementations");
    }
    for (const auto& impl : impls[type]) impl.validate();
  }
}

}  // namespace clrearly::app
