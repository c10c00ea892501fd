// The transition probability matrix V (Sections 3 and 4.2).
//
// Row i of V is a discrete distribution P(c_i -> c_j) over all s cells.
// The posterior of Eq. (1) factors as prior x likelihood; we store the
// two factors separately in log space:
//
//   log V_ij  ∝  prior_logw[i][j] + evidence[i][j]
//
// where prior_logw is the kernel-shaped prior (Section 4.2 "Prior
// Distribution") and evidence accumulates the Eq. (2) likelihood terms —
// the additive log-space updates the paper describes. Keeping the factors
// apart has two benefits: exponential forgetting shrinks *evidence*
// toward zero (i.e. the posterior decays toward the prior, not toward a
// uniform distribution), and grid extensions can rebuild the prior for
// the grown grid while merely remapping the evidence.
//
// Alongside the posterior we keep raw empirical transition counts; they
// power the locality statistics (Section 4.2's 701/412/280 analysis) and
// the Figure 9/10 prior-vs-posterior demonstration.
//
// Hot-path layout (see docs/kernels.md for the full contract):
//  * All kernel evaluations go through a KernelStencil — a
//    (2r-1) x (2c-1) log-weight table built once per grid shape — so
//    Prior and ApplyExtension's backfill are contiguous table reads /
//    fused multiply-adds over row-major slices, with no virtual
//    dispatch or index->coordinate division in the inner loops.
//  * The Eq. (2) likelihood vector for an observed destination d is the
//    kernel centered at d — which is, bitwise, prior row d (Prior
//    copies the same stencil slices). ObserveTransition and the batch
//    ReplayTransitions therefore update a row with one flat s-element
//    sweep over two contiguous arrays (evidence row + prior row), with
//    no per-grid-row slice arithmetic at all.
//  * Scoring reads are served by per-row caches (row max, sum of
//    exponentials, and lazily a sorted copy for rank queries),
//    invalidated whenever the row's evidence changes. The cached values
//    are the *same* doubles the uncached scans produce, in the same
//    order, so results are bitwise identical with or without the cache.
//  * The caches make const query methods non-reentrant: a
//    TransitionMatrix must be confined to one thread at a time. The
//    pair-sharded engine guarantees this (each pair model, and
//    therefore each matrix, is owned by exactly one shard).
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "grid/grid.h"
#include "grid/kernels.h"

namespace pmcorr {

/// One observed cell-to-cell transition in a compiled history sequence
/// (see PairModel::Learn and TransitionMatrix::ReplayTransitions).
struct Transition {
  std::uint32_t from = 0;
  std::uint32_t to = 0;

  friend constexpr bool operator==(Transition, Transition) = default;
};

/// Optional fork/join hook for batch operations that decompose into
/// independent tasks: invoked as runner(count, fn), it must call fn(i)
/// exactly once for every i in [0, count) and return only after all
/// calls completed (any schedule, any threads). An empty runner means a
/// plain serial loop. ThreadPool::ParallelFor satisfies this contract —
/// the engine wraps it in a lambda so core stays free of a thread-pool
/// dependency.
using ParallelRunner =
    std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

/// Result of the fused scoring scan over one matrix row: the normalized
/// transition probability and the paper's 1-based rank, computed in a
/// single pass (plus cache reuse on repeated reads of an unchanged row).
struct TransitionScore {
  double probability = 0.0;
  std::size_t rank = 0;
};

class TransitionMatrix {
 public:
  TransitionMatrix() = default;

  /// Builds the prior V for `grid`: row i is the normalized kernel
  /// centered at cell i; evidence starts at zero.
  static TransitionMatrix Prior(const Grid2D& grid, const DecayKernel& kernel);

  /// Rebuilds a checkpointed matrix: the prior for `grid`, with the
  /// saved evidence and counts (row-major, s*s each) moved in instead of
  /// zero-filled. Throws std::invalid_argument when either array does
  /// not hold s*s entries.
  static TransitionMatrix FromState(const Grid2D& grid,
                                    const DecayKernel& kernel,
                                    std::vector<double> evidence,
                                    std::vector<std::uint32_t> counts,
                                    std::uint64_t observed);

  std::size_t CellCount() const { return cells_; }

  /// Normalized P(c_from -> c_to) under the current posterior.
  /// Returns 0 on an empty (default-constructed) matrix.
  double Probability(std::size_t from, std::size_t to) const;

  /// Probability and rank of (from, to) computed together — one fused
  /// row scan instead of the separate Probability + RankOf passes, and
  /// O(log s) when row `from` has not been written since its caches
  /// were filled (alarmed transitions never update the model, so hot
  /// rows are rescored often). Bitwise identical to calling
  /// Probability() and RankOf() back-to-back. Returns {0, 0} on an
  /// empty matrix.
  TransitionScore ScoreTransition(std::size_t from, std::size_t to) const;

  /// The full normalized row distribution of `from`; empty on an empty
  /// matrix.
  std::vector<double> RowDistribution(std::size_t from) const;

  /// Applies one observed transition from `from` into `observed` (Eq. 2):
  /// first scales row `from`'s accumulated evidence by `forgetting`, then
  /// adds weight * LogWeight(d(observed, c_j)) to every entry.
  void ObserveTransition(std::size_t from, std::size_t observed,
                         const Grid2D& grid, const DecayKernel& kernel,
                         double weight = 1.0, double forgetting = 1.0);

  /// The pre-replay-pipeline form of ObserveTransition, retained
  /// verbatim: walks the kernel stencil one grid-row slice at a time and
  /// applies the unspecialized Eq. (2) update e = e * forgetting +
  /// weight * lw to every entry. Produces bitwise-identical matrices to
  /// ObserveTransition (the flat sweep reads prior row `observed`, which
  /// holds the same stencil bits), but through an independent code path —
  /// which is exactly why it stays: it is the oracle the Learn
  /// differential tests pin ReplayTransitions against, and the faithful
  /// "A" side of the model-building benchmark.
  void ObserveTransitionStencil(std::size_t from, std::size_t observed,
                                const Grid2D& grid, const DecayKernel& kernel,
                                double weight = 1.0, double forgetting = 1.0);

  /// Batch form of ObserveTransition for history replay: bitwise
  /// identical to calling ObserveTransition(t.from, t.to, ...) for every
  /// element of `transitions` in order, but bucketed by source row
  /// first. Row updates touch disjoint evidence/count memory, so
  /// replaying each bucket in its original arrival order reproduces the
  /// sequential result exactly (the docs/kernels.md arithmetic-order
  /// contract) while keeping each row cache-resident — and making the
  /// buckets independently schedulable: pass `runner` (e.g. a
  /// ThreadPool::ParallelFor wrapper) to replay rows in parallel.
  void ReplayTransitions(std::span<const Transition> transitions,
                         double weight = 1.0, double forgetting = 1.0,
                         const ParallelRunner& runner = {});

  /// The paper's ranking function π over row `from`: rank 1 is the most
  /// probable destination. Ties break toward the lower cell index, making
  /// ranks deterministic. Returns a 1-based rank in [1, s], or 0 on an
  /// empty matrix. Needs no normalization: O(log s) through the sorted
  /// cache when ScoreTransition built it, else one branch-free O(s) scan
  /// (no exp); it fills no cache itself.
  std::size_t RankOf(std::size_t from, std::size_t to) const;

  /// Cell index with the highest probability in row `from` (0 on an
  /// empty matrix).
  std::size_t ArgMax(std::size_t from) const;

  /// Total observed (empirical) transitions recorded.
  std::uint64_t ObservedCount() const { return observed_; }

  /// Raw empirical count for (from, to).
  std::uint64_t CountOf(std::size_t from, std::size_t to) const;

  /// Grows the matrix after a grid extension: the prior is rebuilt for
  /// `new_grid`, and evidence/counts move to their remapped indices. For
  /// an existing row, a brand-new column cannot start at zero evidence —
  /// accumulated evidence is negative, so a zero entry would instantly
  /// make the new (never-visited) cell the row's most probable
  /// destination. Instead the new column's evidence is reconstructed
  /// from the row's empirical counts, i.e. what Eq. (2) would have
  /// accumulated had the cell existed all along (exact for
  /// forgetting == 1, a close approximation otherwise).
  /// `new_grid` is the grid *after* the extension, `old_cols` the column
  /// count before it and `likelihood_weight` the Eq. (2) scale in use.
  void ApplyExtension(const GridExtension& ext, std::size_t old_cols,
                      const Grid2D& new_grid, const DecayKernel& kernel,
                      double likelihood_weight = 1.0);

  /// Accumulated evidence (row-major, s*s) — exposed for serialization.
  const std::vector<double>& Evidence() const { return evidence_; }
  /// Empirical counts (row-major, s*s) — exposed for serialization.
  const std::vector<std::uint32_t>& Counts() const { return counts_; }

  /// Grid shape the matrix was built for (rows * cols == CellCount()).
  std::size_t GridRows() const { return rows_; }
  std::size_t GridCols() const { return cols_; }

  /// The prior's kernel log weight for (from, to) — exposed for tests
  /// and serialization round-trip checks.
  double PriorLogW(std::size_t from, std::size_t to) const {
    return prior_logw_[from * cells_ + to];
  }

  /// The precomputed log-weight table in use (empty on a
  /// default-constructed matrix).
  const KernelStencil& Stencil() const { return stencil_; }

  /// Audits the matrix invariants the paper's math and the PR-2/PR-3
  /// caches rely on:
  ///  * shape agreement — rows * cols == cells, all arrays sized s*s,
  ///    stencil built for exactly this shape (and internally valid);
  ///  * the prior is the stencil — prior row i equals the kernel table
  ///    centered at cell i, bitwise;
  ///  * evidence stays finite and non-positive (Eq. 2 accumulates
  ///    weight * log-weights <= 0 under forgetting in (0, 1]);
  ///  * every row is a probability distribution — the normalized row
  ///    sums to 1 within 1e-9;
  ///  * cache coherence — cached (max, sum-exp) row stats equal a
  ///    recomputation in the original scan order bitwise; a sorted rank
  ///    index is a permutation of [0, s), ordered (desc weight, asc
  ///    index), whose keys match the live posterior bitwise;
  ///  * counts_ sums to ObservedCount().
  /// O(s^2) — called from audit-build boundaries and tests, not from
  /// production hot paths.
  void CheckInvariants() const;

 private:
  friend struct InvariantTestPeer;
  // Per-row scoring cache. `max_logw`/`sum_exp` mirror the two scans of
  // the normalization (filled on first score after a row write);
  // `sorted` is the row's posterior log weights ordered (desc weight,
  // asc index) for O(log s) rank queries, built lazily on the second
  // score of an unchanged row — rows that are written every step never
  // pay for the sort.
  struct RowCache {
    bool stats_valid = false;
    bool sorted_valid = false;
    double max_logw = 0.0;
    double sum_exp = 0.0;
    std::vector<std::pair<double, std::uint32_t>> sorted;
  };

  /// Prior and FromState without the evidence and count arrays: the
  /// stencil, the s*s prior table and the row caches for `grid`.
  static TransitionMatrix PriorTable(const Grid2D& grid,
                                     const DecayKernel& kernel);

  double PosteriorLogW(std::size_t from, std::size_t to) const {
    return prior_logw_[from * cells_ + to] + evidence_[from * cells_ + to];
  }

  /// The shared Eq. (2) row update (evidence sweep + count bump) of
  /// ObserveTransition and ReplayTransitions; does not touch observed_
  /// or the row cache. The kernel log weights centered at `observed`
  /// are, bitwise, prior row `observed` (Prior copied the very same
  /// stencil slices), so the update is one flat sweep over two
  /// contiguous s-element arrays. The weight/forgetting == 1.0
  /// specializations drop the respective multiply; x * 1.0 == x and
  /// 1.0 * y == y exactly in IEEE arithmetic, so every branch produces
  /// identical bits (the golden traces pin that). Defined inline so the
  /// per-transition replay loop keeps the branch selection and the
  /// member-pointer loads out of the hot path (they are loop-invariant
  /// once inlined).
  void UpdateRowEvidence(std::size_t from, std::size_t observed,
                         double weight, double forgetting) {
    double* e = evidence_.data() + from * cells_;
    const double* p = prior_logw_.data() + observed * cells_;
    if (forgetting == 1.0) {
      if (weight == 1.0) {
        for (std::size_t c = 0; c < cells_; ++c) e[c] += p[c];
      } else {
        for (std::size_t c = 0; c < cells_; ++c) e[c] += weight * p[c];
      }
    } else {
      for (std::size_t c = 0; c < cells_; ++c) {
        e[c] = e[c] * forgetting + weight * p[c];
      }
    }
    ++counts_[from * cells_ + observed];
  }

  /// Fills (if stale) and returns row `from`'s (max, sum-exp) cache,
  /// scanning in exactly the order the uncached code used.
  const RowCache& RowStats(std::size_t from) const;

  /// Builds row `from`'s sorted cache (stats must already be valid).
  void BuildSorted(std::size_t from) const;

  /// Rank of `to` in row `from` given the target log weight, via the
  /// sorted cache when valid, else a linear scan.
  std::size_t RankInRow(std::size_t from, std::size_t to,
                        double target) const;

  void InvalidateRow(std::size_t from) {
    RowCache& rc = cache_[from];
    rc.stats_valid = false;
    rc.sorted_valid = false;
  }

  std::size_t cells_ = 0;
  std::size_t rows_ = 0;               // grid rows (r)
  std::size_t cols_ = 0;               // grid cols (c)
  KernelStencil stencil_;              // (2r-1) x (2c-1) log weights
  std::vector<double> prior_logw_;     // s*s kernel log weights
  std::vector<double> evidence_;       // s*s accumulated log likelihood
  std::vector<std::uint32_t> counts_;  // s*s empirical transition counts
  std::uint64_t observed_ = 0;
  mutable std::vector<RowCache> cache_;  // one per row, thread-confined
};

/// Locality histogram of observed transitions: entry d is the number of
/// transitions whose source/destination Chebyshev distance equals d
/// (entry 0 = "stayed in the same cell"). Reproduces Section 4.2's
/// 701-transition analysis.
std::vector<std::uint64_t> TransitionDistanceHistogram(
    const TransitionMatrix& matrix, const Grid2D& grid);

}  // namespace pmcorr
