#include "oracle/chain_builder.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace clrearly::markov {

StateId ChainBuilder::transient(std::string name, double residence_time) {
  if (by_name_.contains(name)) {
    throw std::invalid_argument("ChainBuilder: duplicate state name " + name);
  }
  if (residence_time < 0.0 || std::isnan(residence_time)) {
    throw std::invalid_argument("ChainBuilder: negative residence time for " +
                                name);
  }
  const StateId id{transient_names_.size(), /*absorbing=*/false};
  transient_names_.push_back(name);
  residence_.push_back(residence_time);
  edges_.emplace_back();
  by_name_.emplace(std::move(name), id);
  return id;
}

StateId ChainBuilder::absorbing(std::string name) {
  if (by_name_.contains(name)) {
    throw std::invalid_argument("ChainBuilder: duplicate state name " + name);
  }
  const StateId id{absorbing_names_.size(), /*absorbing=*/true};
  absorbing_names_.push_back(name);
  by_name_.emplace(std::move(name), id);
  return id;
}

void ChainBuilder::edge(StateId from, StateId to, double probability) {
  if (from.absorbing) {
    throw std::invalid_argument("ChainBuilder: edges must start at a transient state");
  }
  if (from.index >= edges_.size()) {
    throw std::out_of_range("ChainBuilder: unknown source state");
  }
  const std::size_t target_count = to.absorbing ? absorbing_names_.size()
                                                : transient_names_.size();
  if (to.index >= target_count) {
    throw std::out_of_range("ChainBuilder: unknown target state");
  }
  if (probability < 0.0 || probability > 1.0 || std::isnan(probability)) {
    throw std::invalid_argument("ChainBuilder: probability outside [0,1]");
  }
  if (probability == 0.0) return;  // zero edges are no-ops
  edges_[from.index].push_back(Edge{to, probability});
}

double ChainBuilder::remaining(StateId from) const {
  if (from.absorbing || from.index >= edges_.size()) {
    throw std::out_of_range("ChainBuilder::remaining: bad state");
  }
  double used = 0.0;
  for (const Edge& e : edges_[from.index]) used += e.probability;
  return 1.0 - used;
}

void ChainBuilder::edge_remaining(StateId from, StateId to) {
  const double rest = remaining(from);
  if (rest > 1e-12) edge(from, to, std::min(rest, 1.0));
}

StateId ChainBuilder::lookup(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::invalid_argument("ChainBuilder: unknown state " + name);
  }
  return it->second;
}

AbsorbingChain ChainBuilder::build(double row_sum_tol) const {
  const std::size_t t = transient_names_.size();
  const std::size_t a = absorbing_names_.size();
  util::Matrix q(t, t);
  util::Matrix r(t, a);
  for (std::size_t i = 0; i < t; ++i) {
    for (const Edge& e : edges_[i]) {
      if (e.to.absorbing) {
        r(i, e.to.index) += e.probability;
      } else {
        q(i, e.to.index) += e.probability;
      }
    }
  }
  return AbsorbingChain(std::move(q), std::move(r), residence_, row_sum_tol);
}

}  // namespace clrearly::markov
