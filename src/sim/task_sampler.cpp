#include "sim/task_sampler.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace clrearly::sim {

TaskSampler::TaskSampler(reliability::ClrChainParams params)
    : params_(std::move(params)) {
  params_.validate();
  intervals_.reserve(params_.intervals);
  for (std::size_t i = 0; i < params_.intervals; ++i) {
    const double t_ici = params_.interval_time(i);
    intervals_.push_back(
        {t_ici, 1.0 - std::exp(-params_.lambda_per_us * t_ici)});
  }
}

TaskTrial TaskSampler::sample(util::Rng& rng) const noexcept {
  // The fault_injection tests pin the aggregate statistics of this process
  // against the analytic chains.
  constexpr std::size_t kMaxAttemptsPerInterval = 1'000'000;

  TaskTrial trial;
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    const double t_ici = intervals_[i].time_us;
    const double p_fault = intervals_[i].p_fault;

    bool interval_done = false;
    for (std::size_t attempt = 0;
         attempt < kMaxAttemptsPerInterval && !interval_done; ++attempt) {
      // Useful execution plus the always-on detection pass.
      trial.exec_time_us += t_ici + params_.detection_time_us;

      if (!rng.bernoulli(p_fault)) {
        interval_done = true;  // clean execution
        break;
      }
      ++trial.faults;

      // Hardware spatial redundancy out-votes the fault?
      if (rng.bernoulli(params_.hw_masking)) {
        interval_done = true;
        break;
      }
      // Implicit system-software masking?
      if (rng.bernoulli(params_.implicit_ssw_masking)) {
        interval_done = true;
        break;
      }
      // Detection.
      if (rng.bernoulli(params_.detection_coverage)) {
        trial.exec_time_us += params_.tolerance_time_us;
        if (rng.bernoulli(params_.tolerance_success)) {
          ++trial.rollbacks;
          continue;  // roll back: re-execute this interval
        }
      }
      // Undetected or tolerance failed: the ASW layer is the last line.
      if (!rng.bernoulli(params_.asw_masking)) {
        trial.corrupted = true;
      }
      interval_done = true;  // execution proceeds either way
    }
    if (!interval_done) {
      // Retry cap exhausted — treat as a failed run.
      trial.corrupted = true;
      break;
    }

    // Checkpoint between intervals.
    if (i + 1 < intervals_.size()) {
      trial.exec_time_us += params_.checkpoint_time_us;
      if (rng.bernoulli(params_.checkpoint_error_prob)) {
        trial.corrupted = true;  // snapshot corrupted (Fig. 3b dotted edge)
      }
    }
  }
  return trial;
}

InjectionResult inject_faults(const reliability::ClrChainParams& params,
                              std::size_t trials, std::uint64_t seed) {
  const TaskSampler sampler(params);
  if (trials == 0) {
    throw std::invalid_argument("inject_faults: trials must be positive");
  }
  util::Rng rng(seed);
  double total_time = 0.0, errors = 0.0, faults = 0.0, rollbacks = 0.0;
  for (std::size_t i = 0; i < trials; ++i) {
    const TaskTrial trial = sampler.sample(rng);
    total_time += trial.exec_time_us;
    if (trial.corrupted) errors += 1.0;
    faults += static_cast<double>(trial.faults);
    rollbacks += static_cast<double>(trial.rollbacks);
  }
  const double n = static_cast<double>(trials);
  return InjectionResult{trials, total_time / n, errors / n, faults / n,
                         rollbacks / n};
}

}  // namespace clrearly::sim
