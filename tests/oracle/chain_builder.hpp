// Incremental, name-based construction of absorbing chains.
//
// The CLR chain topologies in the paper (Fig. 3) are assembled state-by-state
// per inter-checkpoint interval; juggling raw matrix indices there would be
// error-prone. ChainBuilder lets callers declare named states and
// probability-weighted edges, then validates and freezes the chain.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "oracle/chain.hpp"

namespace clrearly::markov {

/// Opaque handle to a state registered with a ChainBuilder.
struct StateId {
  std::size_t index = 0;
  bool absorbing = false;

  bool operator==(const StateId&) const noexcept = default;
};

class ChainBuilder {
 public:
  /// Register a transient state with a residence time (>= 0). Names must be
  /// unique across transient and absorbing states; throws on duplicates.
  StateId transient(std::string name, double residence_time);

  /// Register an absorbing state.
  StateId absorbing(std::string name);

  /// Add a transition edge with probability p in [0, 1]. Parallel edges to
  /// the same target accumulate. Source must be transient.
  void edge(StateId from, StateId to, double probability);

  /// Probability mass still unassigned on `from`'s row (1 - sum of edges).
  /// Useful for "the rest goes to X" constructions.
  double remaining(StateId from) const;

  /// Shorthand: route all remaining mass of `from` to `to`. No-op if the row
  /// is already complete (within tolerance).
  void edge_remaining(StateId from, StateId to);

  std::size_t num_transient() const noexcept { return residence_.size(); }
  std::size_t num_absorbing() const noexcept { return absorbing_names_.size(); }

  /// Look up a previously registered state by name; throws if unknown.
  StateId lookup(const std::string& name) const;

  /// Validate and construct the chain. Throws std::invalid_argument if any
  /// transient row does not sum to 1 within `row_sum_tol` or the chain is not
  /// absorbing from every transient state.
  AbsorbingChain build(double row_sum_tol = 1e-9) const;

 private:
  struct Edge {
    StateId to;
    double probability;
  };

  std::vector<std::string> transient_names_;
  std::vector<double> residence_;
  std::vector<std::vector<Edge>> edges_;  // indexed by transient state
  std::vector<std::string> absorbing_names_;
  std::unordered_map<std::string, StateId> by_name_;
};

}  // namespace clrearly::markov
