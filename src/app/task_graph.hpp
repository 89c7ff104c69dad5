// Application model (Section III-B): a periodic task graph
// Gapp = (Tapp, Eapp, Papp). Each task carries a type (functionality) — the
// set of implementations is attached per *type* (see Application below), and
// a criticality weight used by the functional-reliability estimate
// (TABLE III, Eq. 3).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "reliability/task_metrics.hpp"

namespace clrearly::app {

struct Task {
  std::size_t id = 0;
  std::size_t type = 0;        ///< task-type (functionality) index
  std::string name;
  double criticality = 1.0;    ///< relative weight; normalized at QoS time
};

struct Edge {
  std::size_t src = 0;
  std::size_t dst = 0;
  /// Data volume carried by the dependency (KB); consumed by the optional
  /// communication model, ignored when the interconnect is disabled.
  double data_kb = 0.0;

  bool operator==(const Edge&) const noexcept = default;
};

/// Directed acyclic task graph. Mutation is append-only; acyclicity is
/// enforced on demand (topological_order throws on cycles, validate() checks
/// everything).
class TaskGraph {
 public:
  /// Add a task of `type`; returns its id (dense, starting at 0).
  std::size_t add_task(std::size_t type, std::string name,
                       double criticality = 1.0);

  /// Add a dependency edge src -> dst carrying `data_kb` of data; both tasks
  /// must exist, self-loops rejected. A duplicate (src, dst) pair is ignored
  /// (the original edge and its data volume are kept).
  void add_edge(std::size_t src, std::size_t dst, double data_kb = 0.0);

  /// The edge src -> dst, or nullptr when absent. O(out-degree of src).
  const Edge* find_edge(std::size_t src, std::size_t dst) const;

  std::size_t num_tasks() const noexcept { return tasks_.size(); }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Number of distinct task types = max type index + 1.
  std::size_t num_types() const noexcept;

  const Task& task(std::size_t id) const;
  const std::vector<Task>& tasks() const noexcept { return tasks_; }
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  const std::vector<std::size_t>& predecessors(std::size_t id) const;
  const std::vector<std::size_t>& successors(std::size_t id) const;

  /// Tasks with no predecessors / successors.
  std::vector<std::size_t> sources() const;
  std::vector<std::size_t> sinks() const;

  /// Kahn topological order; throws std::invalid_argument on a cycle.
  std::vector<std::size_t> topological_order() const;

  /// Length (in tasks) of the longest path — a lower bound on schedule depth.
  std::size_t critical_path_length() const;

  /// Criticality weights normalized to sum to 1 (zeta_t of TABLE III).
  std::vector<double> normalized_criticality() const;

  /// Full structural validation (ids, types dense-ish, DAG); throws on
  /// violation.
  void validate() const;

 private:
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> preds_;
  std::vector<std::vector<std::size_t>> succs_;
  /// The edges leaving each task as a flat intrusive list: first_out_[src]
  /// is the index in edges_ of the last edge added from src and
  /// next_out_[e] the one added before e from the same source (kNoEdge ends
  /// both).
  static constexpr std::size_t kNoEdge = static_cast<std::size_t>(-1);
  std::vector<std::size_t> first_out_;
  std::vector<std::size_t> next_out_;
};

/// A complete application: the task graph, the per-task-type implementation
/// sets (Impl_t of Section III-B; from app::ImplCharacterizer or hand-built)
/// and the application period Papp used by the lifetime model.
struct Application {
  std::string name;
  TaskGraph graph;
  /// impls[type] = the base implementations available for that task type.
  std::vector<std::vector<reliability::BaseImpl>> impls;
  double period_us = 1.0e6;

  /// Structural validation: every task type has at least one implementation,
  /// the graph validates, period positive.
  void validate() const;
};

}  // namespace clrearly::app
