#include "reliability/clr_chain_builder.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace clrearly::reliability {

namespace {

void check_prob(double p, const char* what) {
  if (p < 0.0 || p > 1.0 || std::isnan(p)) {
    throw std::invalid_argument(std::string("ClrChainParams: ") + what +
                                " outside [0,1]");
  }
}

// Per-interval state block of the batched assembler. Offsets mirror the
// registration order of the oracle's build_chain_reference (tests/oracle)
// exactly, so both paths produce the same state indexing: 7 states per
// interval (the last interval has no checkpoint, hence t = 7n - 1 transient
// states total).
constexpr std::size_t kExec = 0;
constexpr std::size_t kHw = 1;
constexpr std::size_t kSswImpl = 2;
constexpr std::size_t kSswDet = 3;
constexpr std::size_t kSswTol = 4;
constexpr std::size_t kAsw = 5;
constexpr std::size_t kChk = 6;
constexpr std::size_t kBlock = 7;

}  // namespace

void ClrChainParams::validate() const {
  if (exec_time_us <= 0.0 || std::isnan(exec_time_us)) {
    throw std::invalid_argument("ClrChainParams: exec_time_us must be positive");
  }
  if (lambda_per_us < 0.0 || std::isnan(lambda_per_us)) {
    throw std::invalid_argument("ClrChainParams: negative lambda");
  }
  if (intervals == 0) {
    throw std::invalid_argument("ClrChainParams: intervals must be >= 1");
  }
  check_prob(hw_masking, "hw_masking");
  check_prob(implicit_ssw_masking, "implicit_ssw_masking");
  check_prob(detection_coverage, "detection_coverage");
  check_prob(tolerance_success, "tolerance_success");
  check_prob(asw_masking, "asw_masking");
  check_prob(checkpoint_error_prob, "checkpoint_error_prob");
  for (double t : {detection_time_us, tolerance_time_us, checkpoint_time_us}) {
    if (t < 0.0 || std::isnan(t)) {
      throw std::invalid_argument("ClrChainParams: negative overhead time");
    }
  }
  if (!interval_fractions.empty()) {
    if (interval_fractions.size() != intervals) {
      throw std::invalid_argument(
          "ClrChainParams: interval_fractions size must equal intervals");
    }
    double sum = 0.0;
    for (double f : interval_fractions) {
      if (f <= 0.0 || std::isnan(f)) {
        throw std::invalid_argument(
            "ClrChainParams: interval fractions must be positive");
      }
      sum += f;
    }
    if (std::abs(sum - 1.0) > 1e-9) {
      throw std::invalid_argument(
          "ClrChainParams: interval fractions must sum to 1");
    }
  }
  // A detected error with certain tolerance and a zero no-error probability
  // would loop forever; the chain constructor rejects that via singularity of
  // I - Q, which surfaces as std::domain_error at build time.
}

double ClrChainParams::interval_time(std::size_t i) const {
  if (i >= intervals) {
    throw std::out_of_range("ClrChainParams::interval_time");
  }
  if (interval_fractions.empty()) {
    return exec_time_us / static_cast<double>(intervals);
  }
  return exec_time_us * interval_fractions[i];
}

double ClrChainParams::pne_for_interval(std::size_t i) const {
  return std::exp(-lambda_per_us * interval_time(i));
}

util::Key128 chain_cache_key(const ClrChainParams& p) {
  p.validate();
  util::Key128Stream key;
  key.add(p.exec_time_us)
      .add(p.lambda_per_us)
      .add(p.hw_masking)
      .add(p.implicit_ssw_masking)
      .add(p.detection_coverage)
      .add(p.tolerance_success)
      .add(p.asw_masking)
      .add(static_cast<std::uint64_t>(p.intervals))
      .add(p.detection_time_us)
      .add(p.tolerance_time_us)
      .add(p.checkpoint_time_us)
      .add(p.checkpoint_error_prob);
  // Stream the derived per-interval splits instead of interval_fractions
  // itself: representations that build the same chain share the key.
  for (std::size_t i = 0; i < p.intervals; ++i) {
    key.add(p.interval_time(i));
  }
  return key.digest();
}

namespace {

using ChainCache = util::MemoCache<util::Key128, ClrChainAnalysis,
                                   util::Key128Hash>;

struct ChainCacheState {
  std::mutex mutex;
  std::unique_ptr<ChainCache> cache;
  std::size_t built_capacity = 0;
};

/// The process-wide chain-solve cache, rebuilt (and thereby cleared) when
/// util::cache_capacity() changes — same contract as the global thread pool:
/// reconfigure between runs, not while solves are in flight.
ChainCache* chain_cache() {
  static ChainCacheState state;
  const std::size_t capacity = util::cache_capacity();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.cache || state.built_capacity != capacity) {
    state.cache.reset();
    state.cache = std::make_unique<ChainCache>(capacity, "chain_solve");
    state.built_capacity = capacity;
  }
  return state.cache->enabled() ? state.cache.get() : nullptr;
}

}  // namespace

ClrChainAnalysis analyze_clr_chain(const ClrChainParams& params) {
  // Width 1: a lone chain padded to the preferred width would pay for the
  // pad lanes' solves too.
  return analyze_clr_chain_batch({&params, 1}, {.group_width = 1})[0];
}

util::CacheStats chain_cache_stats() {
  ChainCache* cache = chain_cache();
  return cache == nullptr ? util::CacheStats{} : cache->stats();
}

void assemble_clr_chain_batch(
    std::span<const ClrChainParams* const> lanes, bool functional,
    markov::ChainBatch& batch) {
  const std::size_t width = lanes.size();
  if (width == 0) return;
  const std::size_t n = lanes[0]->intervals;
  const std::size_t t = kBlock * n - 1;
  const std::size_t a = functional ? 2 : 1;
  batch.configure(t, a, width);

  const std::size_t done = functional ? kAbsorbNoError : 0;

  // The Q cell set depends only on `n` (both checkpoint branches hit the
  // same Q cell; timing/functional differ only in values and in R), so lane
  // 0 records it once per size class. configure() and the kernel then treat
  // q as sparse: pattern-cell re-zeroing and memset+pattern I - Q assembly
  // instead of dense t*t*W streams.
  const bool record_pattern = (batch.q_pattern_t != t);
  if (record_pattern) batch.q_pattern.reserve(12 * n);

  // Per-lane assembly at stride `width`: O(n) writes per lane next to an
  // O(t^3) solve, so lane-major scatter here costs nothing. Each (row, col)
  // cell is touched by exactly one edge, so += from the zeroed buffers
  // reproduces build_chain_reference's accumulation bit for bit.
  for (std::size_t l = 0; l < width; ++l) {
    const ClrChainParams& p = *lanes[l];
    assert(p.intervals == n && "batch lanes must share one size class");
    const auto q_at = [&](std::size_t from, std::size_t to) -> double& {
      const std::size_t cell = from * t + to;
      if (record_pattern && l == 0) {
        batch.q_pattern.push_back(static_cast<std::uint32_t>(cell));
      }
      return batch.q[cell * width + l];
    };
    const auto r_at = [&](std::size_t from, std::size_t k) -> double& {
      return batch.r[(from * a + k) * width + l];
    };

    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t base = kBlock * i;
      const std::size_t exec = base + kExec;
      const std::size_t hw = base + kHw;
      const std::size_t ssw_impl = base + kSswImpl;
      const std::size_t ssw_det = base + kSswDet;
      const std::size_t ssw_tol = base + kSswTol;
      const std::size_t asw = base + kAsw;
      const std::size_t chk = base + kChk;
      const bool has_chk = i + 1 < n;

      batch.residence[exec * width + l] =
          p.interval_time(i) + p.detection_time_us;
      batch.residence[ssw_tol * width + l] = p.tolerance_time_us;
      if (has_chk) {
        batch.residence[chk * width + l] = p.checkpoint_time_us;
      }

      const auto to_next = [&](std::size_t from, double prob) {
        if (has_chk) {
          q_at(from, chk) += prob;
        } else {
          r_at(from, done) += prob;
        }
      };

      const double pne = p.pne_for_interval(i);
      to_next(exec, pne);
      q_at(exec, hw) += 1.0 - pne;

      to_next(hw, p.hw_masking);
      q_at(hw, ssw_impl) += 1.0 - p.hw_masking;

      to_next(ssw_impl, p.implicit_ssw_masking);
      q_at(ssw_impl, ssw_det) += 1.0 - p.implicit_ssw_masking;

      q_at(ssw_det, ssw_tol) += p.detection_coverage;
      q_at(ssw_det, asw) += 1.0 - p.detection_coverage;

      q_at(ssw_tol, exec) += p.tolerance_success;
      q_at(ssw_tol, asw) += 1.0 - p.tolerance_success;

      if (functional) {
        to_next(asw, p.asw_masking);
        r_at(asw, kAbsorbError) += 1.0 - p.asw_masking;
      } else {
        to_next(asw, 1.0);
      }

      if (has_chk) {
        const std::size_t next_exec = kBlock * (i + 1) + kExec;
        if (functional && p.checkpoint_error_prob > 0.0) {
          r_at(chk, kAbsorbError) += p.checkpoint_error_prob;
          q_at(chk, next_exec) += 1.0 - p.checkpoint_error_prob;
        } else {
          q_at(chk, next_exec) += 1.0;
        }
      }
    }
  }
  if (record_pattern) batch.q_pattern_t = t;
  batch.q_zero_outside_pattern = true;
}

std::vector<ClrChainAnalysis> analyze_clr_chain_batch(
    std::span<const ClrChainParams> params, const ChainBatchOptions& options,
    std::vector<ChainSolveStatus>* status) {
  const std::size_t count = params.size();
  std::vector<ClrChainAnalysis> results(count);
  if (status != nullptr) status->assign(count, ChainSolveStatus::kOk);
  if (count == 0) return results;

  const util::TraceSpan span("chain.batch.analyze");
  static util::Counter& requests_metric =
      util::metric_counter("chain.batch.requests");
  static util::Counter& dedupe_metric =
      util::metric_counter("chain.batch.dedupe_hits");
  static util::Counter& batches_metric =
      util::metric_counter("chain.batch.batches");
  static util::Counter& lanes_metric =
      util::metric_counter("chain.batch.lanes_filled");
  static util::Counter& pad_metric =
      util::metric_counter("chain.batch.pad_lanes");
  requests_metric.add(count);

  ChainCache* cache = options.use_cache ? chain_cache() : nullptr;

  // Collect: resolve each request to a cache hit, a duplicate of an
  // earlier miss, or a fresh unique miss.
  struct Miss {
    util::Key128 key;
    std::size_t first_index = 0;  // position in `params`
    ClrChainAnalysis analysis;
    ChainSolveStatus outcome = ChainSolveStatus::kOk;
  };
  constexpr std::size_t kFromCache = static_cast<std::size_t>(-1);
  std::vector<Miss> misses;
  std::vector<std::size_t> slot(count, kFromCache);
  misses.reserve(count);
  // Open-addressed dedupe table (linear probing, power-of-two size, entries
  // index into `misses`): an unordered_map pays a node allocation per unique
  // chain, which at small t costs more than the batched solve it feeds.
  constexpr std::uint32_t kEmptySlot = static_cast<std::uint32_t>(-1);
  const std::size_t table_size = std::bit_ceil(2 * count + 1);
  const std::size_t table_mask = table_size - 1;
  std::vector<std::uint32_t> dedupe_table(table_size, kEmptySlot);
  for (std::size_t i = 0; i < count; ++i) {
    const util::Key128 key = chain_cache_key(params[i]);  // validates
    std::size_t pos = util::Key128Hash{}(key)&table_mask;
    bool duplicate = false;
    while (dedupe_table[pos] != kEmptySlot) {
      if (misses[dedupe_table[pos]].key == key) {
        dedupe_metric.add();
        slot[i] = dedupe_table[pos];
        duplicate = true;
        break;
      }
      pos = (pos + 1) & table_mask;
    }
    if (duplicate) continue;
    if (cache != nullptr && cache->lookup(key, results[i])) continue;
    slot[i] = misses.size();
    dedupe_table[pos] = static_cast<std::uint32_t>(misses.size());
    misses.push_back(Miss{key, i, {}, ChainSolveStatus::kOk});
  }

  // Partition unique misses into size classes (same transient count) —
  // std::map for a deterministic class order. Batches are usually one size
  // class (a sweep evaluates one candidate shape at a time), so the common
  // case skips the tree entirely.
  std::map<std::size_t, std::vector<std::size_t>> classes;
  bool single_class = true;
  for (std::size_t s = 1; s < misses.size() && single_class; ++s) {
    single_class = params[misses[s].first_index].intervals ==
                   params[misses[0].first_index].intervals;
  }
  if (single_class && !misses.empty()) {
    auto& slots = classes[params[misses[0].first_index].intervals];
    slots.resize(misses.size());
    for (std::size_t s = 0; s < misses.size(); ++s) slots[s] = s;
  } else {
    for (std::size_t s = 0; s < misses.size(); ++s) {
      classes[params[misses[s].first_index].intervals].push_back(s);
    }
  }

  const std::size_t width = options.group_width != 0
                                ? options.group_width
                                : markov::preferred_batch_width();
  markov::ChainBatch& batch = markov::local_chain_batch();
  std::vector<const ClrChainParams*> lane_params(width);
  std::vector<double> timing_et(width), timing_sm(width);
  std::vector<std::uint8_t> timing_singular(width);

  for (const auto& [intervals, slots] : classes) {
    (void)intervals;
    for (std::size_t off = 0; off < slots.size(); off += width) {
      const std::size_t real = std::min(width, slots.size() - off);
      for (std::size_t l = 0; l < real; ++l) {
        lane_params[l] = &params[misses[slots[off + l]].first_index];
      }
      // Pad lanes repeat lane 0: same size class, results discarded.
      for (std::size_t l = real; l < width; ++l) lane_params[l] = lane_params[0];
      batches_metric.add();
      lanes_metric.add(real);
      pad_metric.add(width - real);

      // Timing chain (Fig. 3a): expected time + second moment. Outputs are
      // copied out before the batch is reconfigured for the functional pass.
      assemble_clr_chain_batch({lane_params.data(), width}, /*functional=*/false,
                               batch);
      markov::solve_row0_batch(batch, /*with_second_moment=*/true);
      std::copy_n(batch.expected_time.begin(), width, timing_et.begin());
      std::copy_n(batch.second_moment.begin(), width, timing_sm.begin());
      std::copy_n(batch.singular.begin(), width, timing_singular.begin());

      // Functional chain (Fig. 3b): error probability.
      assemble_clr_chain_batch({lane_params.data(), width}, /*functional=*/true,
                               batch);
      markov::solve_row0_batch(batch, /*with_second_moment=*/false);

      for (std::size_t l = 0; l < real; ++l) {
        Miss& m = misses[slots[off + l]];
        if (timing_singular[l] != 0 || batch.singular[l] != 0) {
          m.outcome = ChainSolveStatus::kSingular;
          continue;
        }
        const ClrChainParams& p = *lane_params[l];
        const double n = static_cast<double>(p.intervals);
        m.analysis.min_exec_time_us = p.exec_time_us +
                                      n * p.detection_time_us +
                                      (n - 1.0) * p.checkpoint_time_us;
        m.analysis.avg_exec_time_us = timing_et[l];
        const double variance =
            timing_sm[l] - timing_et[l] * timing_et[l];
        m.analysis.exec_time_stddev_us = std::sqrt(std::max(variance, 0.0));
        m.analysis.error_prob = batch.b0[kAbsorbError * width + l];
        if (cache != nullptr) cache->insert(m.key, m.analysis);
      }
    }
  }

  // Scatter back to request order; duplicates share their miss's result.
  for (std::size_t i = 0; i < count; ++i) {
    if (slot[i] == kFromCache) continue;
    const Miss& m = misses[slot[i]];
    if (m.outcome != ChainSolveStatus::kOk) {
      if (status == nullptr) {
        throw std::domain_error(
            "analyze_clr_chain_batch: non-absorbing chain (singular I - Q)");
      }
      (*status)[i] = m.outcome;
    }
    results[i] = m.analysis;
  }
  return results;
}

CheckpointSweepResult optimize_checkpoint_intervals(
    ClrChainParams params, std::size_t max_intervals) {
  if (max_intervals == 0) {
    throw std::invalid_argument(
        "optimize_checkpoint_intervals: max_intervals must be >= 1");
  }
  params.interval_fractions.clear();
  CheckpointSweepResult result;
  bool found = false;
  for (std::size_t n = 1; n <= max_intervals; ++n) {
    params.intervals = n;
    double avg = std::numeric_limits<double>::quiet_NaN();
    try {
      avg = analyze_clr_chain(params).avg_exec_time_us;
    } catch (const std::domain_error&) {
      // Non-absorbing at this interval count (e.g. pne underflow); record
      // NaN and keep sweeping.
    }
    result.avg_time_per_intervals.push_back(avg);
    if (!std::isnan(avg) && (!found || avg < result.best_avg_time_us)) {
      result.best_intervals = n;
      result.best_avg_time_us = avg;
      found = true;
    }
  }
  if (!found) {
    throw std::domain_error(
        "optimize_checkpoint_intervals: no interval count yields an "
        "absorbing chain");
  }
  return result;
}

}  // namespace clrearly::reliability
