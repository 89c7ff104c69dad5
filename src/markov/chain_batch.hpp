// Batched structure-of-arrays chain workspace and the vectorized row-0
// kernel that runs on it.
//
// One ChainBatch holds W ("lane width") same-size absorbing chains packed
// lane-major: element (i, j) of chain l lives at (i*t + j)*W + l, so the W
// copies of every matrix entry are contiguous. The batched kernel
// (solve_row0_batch) then performs *exactly* the row-0 operation sequence of
// the scalar reference in the tests-only oracle library (tests/oracle:
// markov::AbsorbingChain over util::LuDecomposition) — assemble I - Q,
// partially pivoted LU, one adjoint solve, dot reductions, and optionally
// the second-moment forward/backward solves — with each scalar operation
// widened to W lanes. Because the per-lane arithmetic (operation order,
// pivot selection, tie-breaking, the skip-on-zero branches) mirrors that
// LU instruction for instruction, every lane's results are bit-identical to
// the reference's row-0 accessors for the same chain — at every lane width
// and on every dispatch path (pinned by chain_batch_test and the
// bench_chain_kernel divergence gate). This kernel is the only chain solver
// in the library; markov::solve_row0_batch at width 1 serves single chains.
//
// Dispatch: the kernel body is a width-templated header
// (chain_batch_kernel.hpp) instantiated in three translation units — a
// portable one (widths 1/4/8, baseline ISA) and two compiled with -mavx2 /
// -mavx512f — selected at runtime from util::active_simd_level(). The lane
// loops are stride-1 over the W contiguous copies, which the vectorizer
// turns into 4-wide (AVX2) or 8-wide (AVX-512) packed-double instructions;
// all kernel TUs build with -ffp-contract=off so no path fuses a multiply
// and subtract the others would round separately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/cpu_features.hpp"

namespace clrearly::markov {

/// Relative threshold below which an LU pivot is treated as zero. The
/// oracle's LuDecomposition uses this same constant, so its singularity test
/// and each kernel lane's agree bit for bit.
inline constexpr double kLuSingularTol = 1e-13;

/// Structure-of-arrays workspace for W same-size chains. All buffers are
/// lane-major (lane index innermost); configure() reshapes and zeroes the
/// assembly buffers (q, r, residence) while reusing capacity, so a warm
/// batch solve performs no heap allocation.
struct ChainBatch {
  std::size_t t = 0;      ///< transient states per chain
  std::size_t a = 0;      ///< absorbing states per chain
  std::size_t width = 0;  ///< lanes W

  // Chain under analysis — filled by the batched assembler
  // (reliability::assemble_clr_chain_batch).
  std::vector<double> q;          ///< t*t*W, (i*t + j)*W + l
  std::vector<double> r;          ///< t*a*W, (i*a + k)*W + l
  std::vector<double> residence;  ///< t*W,   i*W + l

  // Kernel state and outputs.
  std::vector<double> lu;            ///< I - Q, LU-factored in place (t*t*W)
  std::vector<std::size_t> perm;     ///< per-lane row permutation (t*W)
  std::vector<double> row0;          ///< row 0 of N per lane (t*W)
  std::vector<double> b0;            ///< row 0 of B per lane (a*W, k*W + l)
  std::vector<double> tvec;          ///< expected time per state (t*W)
  std::vector<double> qt;            ///< Q * tvec scratch (t*W)
  std::vector<double> rhs;           ///< right-hand-side scratch (t*W)
  std::vector<double> scratch;       ///< triangular-solve scratch (t*W)
  std::vector<double> expected_time;   ///< per-lane E[time] (W)
  std::vector<double> expected_steps;  ///< per-lane E[steps] (W)
  std::vector<double> second_moment;   ///< per-lane E[T^2] (W, if requested)
  std::vector<std::uint8_t> singular;  ///< per-lane I - Q singularity flag

  // Sparse assembly pattern. The CLR chain topology touches only ~12 of the
  // t cells per Q row, so an assembler that writes the same cell set every
  // time can record it once (cell index i*t + j, lane-invariant) and let
  // configure() re-zero just those cells instead of streaming the whole
  // t*t*W buffer. While `q_zero_outside_pattern` holds, the kernel likewise
  // builds I - Q by memset + diagonal + pattern walk instead of a dense
  // pass — bit-identical, because every unlisted off-diagonal cell is
  // exactly +0.0 in every lane and the singularity tolerance already clamps
  // at 1.0 (the value of every unlisted diagonal).
  //
  // Protocol: configure() clears `q_zero_outside_pattern` (an arbitrary
  // caller may write anywhere); an assembler that wrote only pattern cells
  // re-asserts it, and records the pattern first when `q_pattern_t != t`.
  std::vector<std::uint32_t> q_pattern;  ///< cells of q written by assembly
  std::size_t q_pattern_t = 0;           ///< t the pattern describes (0=none)
  bool q_zero_outside_pattern = false;   ///< q holds +0.0 off the pattern

  /// Reshape for W chains of t transient / a absorbing states: zeroes the
  /// assembly buffers (q, r, residence), sizes the kernel buffers, clears
  /// the singular flags. Reuses capacity — allocation-free once warm.
  /// Also feeds the bounded shrink policy (see below).
  void configure(std::size_t t, std::size_t a, std::size_t width);

  /// Doubles currently held across every buffer (capacity, not size) — the
  /// quantity the high-water gauge and the shrink test observe.
  std::size_t footprint_doubles() const noexcept;

  /// Release all buffer capacity (the shrink action). Results are
  /// unaffected; the next configure() simply reallocates.
  void release();

  // Bounded shrink policy: a workspace that served a large-t burst holds
  // its high-water capacity forever unless told otherwise. After
  // kShrinkPatience consecutive configure() calls each needing at most
  // 1/kShrinkDivisor of the high-water footprint, release() runs and the
  // high-water restarts from the current need. Small workspaces
  // (< kShrinkMinDoubles) never churn.
  static constexpr std::size_t kShrinkPatience = 64;
  static constexpr std::size_t kShrinkDivisor = 4;
  static constexpr std::size_t kShrinkMinDoubles = 1 << 14;  // 128 KiB
  std::size_t high_water_doubles = 0;  ///< max footprint need seen
  std::size_t small_streak = 0;        ///< consecutive far-below-HWM configs
};

/// The calling thread's batch workspace (thread_local — parallel sweeps
/// batch independently without contention).
ChainBatch& local_chain_batch();

/// Lane width the active dispatch level prefers: 8 under AVX-512 and AVX2
/// (two 4-wide ops per step amortize the per-batch bookkeeping better than
/// one), 4 for the portable fallback (SSE2 auto-vectorizes 2-wide and the
/// SoA layout still amortizes loop overhead).
std::size_t preferred_batch_width(util::SimdLevel level) noexcept;
std::size_t preferred_batch_width() noexcept;

/// Solve all W chains assembled in `batch` for their row-0 metrics, exactly
/// as W oracle AbsorbingChain solves would: per-lane results land in
/// expected_time / expected_steps / b0 (and second_moment when requested).
/// A lane whose I - Q is singular gets its `singular` flag set and
/// value-initialized outputs instead of throwing — one bad chain must not
/// poison its batch-mates; the caller decides whether that is an error.
/// Dispatches to the widest kernel the runtime level supports for
/// batch.width; any width runs everywhere (portable instantiations cover
/// 1/4/8, other widths fall back to a per-lane scalar loop).
void solve_row0_batch(ChainBatch& batch, bool with_second_moment);

}  // namespace clrearly::markov
