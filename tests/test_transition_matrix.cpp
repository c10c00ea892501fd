// Tests for the transition probability matrix, including an exact pin of
// the paper's Figure 5 prior and the Figure 9/10 prior-vs-posterior
// behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/transition_matrix.h"
#include "grid/grid.h"
#include "grid/kernels.h"

namespace pmcorr {
namespace {

Grid2D Grid3x3() {
  return Grid2D(IntervalList::Uniform(0.0, 3.0, 3),
                IntervalList::Uniform(0.0, 3.0, 3));
}

bool BitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Reference scoring oracle: the pre-stencil scalar arithmetic, operation
// for operation, computed from the matrix's public accessors. The fused
// and cached paths must reproduce it bitwise.
struct OracleScore {
  double probability = 0.0;
  std::size_t rank = 0;
};

OracleScore Oracle(const TransitionMatrix& m, std::size_t from,
                   std::size_t to) {
  const std::size_t s = m.CellCount();
  const auto w = [&](std::size_t j) {
    return m.PriorLogW(from, j) + m.Evidence()[from * s + j];
  };
  double max_logw = w(0);
  for (std::size_t j = 1; j < s; ++j) max_logw = std::max(max_logw, w(j));
  double total = 0.0;
  for (std::size_t j = 0; j < s; ++j) total += std::exp(w(j) - max_logw);
  OracleScore out;
  out.probability = std::exp(w(to) - max_logw) / total;
  const double target = w(to);
  out.rank = 1;
  for (std::size_t j = 0; j < s; ++j) {
    if (w(j) > target || (w(j) == target && j < to)) ++out.rank;
  }
  return out;
}

// The full 9x9 matrix printed in Figure 5 of the paper (percent).
constexpr double kFigure5[9][9] = {
    {21.98, 14.65, 8.79, 14.65, 10.99, 7.33, 8.79, 7.33, 5.49},
    {13.16, 19.74, 13.16, 9.87, 13.16, 9.87, 6.58, 7.89, 6.58},
    {8.79, 14.65, 21.98, 7.33, 10.99, 14.65, 5.49, 7.33, 8.79},
    {13.16, 9.87, 6.58, 19.74, 13.16, 7.89, 13.16, 9.87, 6.58},
    {8.82, 11.76, 8.82, 11.76, 17.65, 11.76, 8.82, 11.76, 8.82},
    {6.58, 9.87, 13.16, 7.89, 13.16, 19.74, 6.58, 9.87, 13.16},
    {8.79, 7.33, 5.49, 14.65, 10.99, 7.33, 21.98, 14.65, 8.79},
    {6.58, 7.89, 6.58, 9.87, 13.16, 9.87, 13.16, 19.74, 13.16},
    {5.49, 7.33, 8.79, 7.33, 10.99, 14.65, 8.79, 14.65, 21.98},
};

TEST(TransitionMatrix, PriorReproducesFigure5Exactly) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  const TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  for (std::size_t i = 0; i < 9; ++i) {
    const auto row = matrix.RowDistribution(i);
    for (std::size_t j = 0; j < 9; ++j) {
      // The paper prints 2 decimals of percent -> tolerance 0.005%.
      EXPECT_NEAR(row[j] * 100.0, kFigure5[i][j], 5e-3)
          << "cell c" << i + 1 << " -> c" << j + 1;
    }
  }
}

TEST(TransitionMatrix, RowsAreDistributions) {
  const Grid2D grid = Grid3x3();
  const ExponentialKernel kernel(2.0, CellMetric::kEuclidean);
  const TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  for (std::size_t i = 0; i < matrix.CellCount(); ++i) {
    const auto row = matrix.RowDistribution(i);
    const double sum = std::accumulate(row.begin(), row.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    for (double p : row) EXPECT_GT(p, 0.0);
  }
}

TEST(TransitionMatrix, PriorSelfTransitionHighest) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  const TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(matrix.ArgMax(i), i);
    EXPECT_EQ(matrix.RankOf(i, i), 1u);
  }
}

TEST(TransitionMatrix, ObservationsShiftTheMode) {
  // Figure 9 -> Figure 10: the prior peaks on the self-transition, but
  // after repeatedly observing c5 -> c1, the posterior mode moves to c1.
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  EXPECT_EQ(matrix.ArgMax(4), 4u);
  for (int k = 0; k < 12; ++k) {
    matrix.ObserveTransition(4, 0, grid, kernel);
  }
  EXPECT_EQ(matrix.ArgMax(4), 0u);
  EXPECT_GT(matrix.Probability(4, 0), matrix.Probability(4, 4));
  // Other rows are untouched.
  EXPECT_EQ(matrix.ArgMax(3), 3u);
}

TEST(TransitionMatrix, ProbabilityMatchesRowDistribution) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  matrix.ObserveTransition(2, 7, grid, kernel);
  const auto row = matrix.RowDistribution(2);
  for (std::size_t j = 0; j < 9; ++j) {
    EXPECT_NEAR(matrix.Probability(2, j), row[j], 1e-12);
  }
}

TEST(TransitionMatrix, RanksAreAPermutation) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  matrix.ObserveTransition(4, 1, grid, kernel);
  std::vector<bool> seen(9, false);
  for (std::size_t j = 0; j < 9; ++j) {
    const std::size_t rank = matrix.RankOf(4, j);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, 9u);
    EXPECT_FALSE(seen[rank - 1]) << "duplicate rank " << rank;
    seen[rank - 1] = true;
  }
}

TEST(TransitionMatrix, CountsTrackObservations) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  matrix.ObserveTransition(0, 0, grid, kernel);
  matrix.ObserveTransition(0, 1, grid, kernel);
  matrix.ObserveTransition(0, 1, grid, kernel);
  EXPECT_EQ(matrix.ObservedCount(), 3u);
  EXPECT_EQ(matrix.CountOf(0, 0), 1u);
  EXPECT_EQ(matrix.CountOf(0, 1), 2u);
  EXPECT_EQ(matrix.CountOf(1, 0), 0u);
}

TEST(TransitionMatrix, ForgettingBoundsEvidence) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix sticky = TransitionMatrix::Prior(grid, kernel);
  TransitionMatrix forgetful = TransitionMatrix::Prior(grid, kernel);
  for (int k = 0; k < 500; ++k) {
    sticky.ObserveTransition(4, 0, grid, kernel, 1.0, 1.0);
    forgetful.ObserveTransition(4, 0, grid, kernel, 1.0, 0.9);
  }
  // With forgetting the posterior stays smooth; without, it sharpens
  // towards a point mass.
  EXPECT_GT(sticky.Probability(4, 0), forgetful.Probability(4, 0));
  EXPECT_GT(forgetful.Probability(4, 4), 1e-6);
  // Both still agree on the mode.
  EXPECT_EQ(sticky.ArgMax(4), 0u);
  EXPECT_EQ(forgetful.ArgMax(4), 0u);
}

TEST(TransitionMatrix, ExtensionRemapsEvidenceAndCounts) {
  Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  for (int k = 0; k < 8; ++k) matrix.ObserveTransition(4, 1, grid, kernel);
  EXPECT_EQ(matrix.ArgMax(4), 1u);

  const std::size_t old_cols = grid.Cols();
  const auto ext = grid.ExtendToInclude({-0.5, -0.5}, 2.0, 2.0);
  ASSERT_TRUE(ext.has_value());
  matrix.ApplyExtension(*ext, old_cols, grid, kernel);

  EXPECT_EQ(matrix.CellCount(), grid.CellCount());
  const std::size_t new4 = Grid2D::RemapIndex(4, old_cols, *ext);
  const std::size_t new1 = Grid2D::RemapIndex(1, old_cols, *ext);
  EXPECT_EQ(matrix.ArgMax(new4), new1);
  EXPECT_EQ(matrix.CountOf(new4, new1), 8u);
  EXPECT_EQ(matrix.ObservedCount(), 8u);

  // New cells behave like prior rows: self-transition is the mode.
  const std::size_t new_cell = 0;  // freshly added corner
  EXPECT_EQ(matrix.ArgMax(new_cell), new_cell);
  const auto row = matrix.RowDistribution(new_cell);
  EXPECT_NEAR(std::accumulate(row.begin(), row.end(), 0.0), 1.0, 1e-12);
}

TEST(TransitionMatrix, NewCellsDoNotOutrankObservedDestinations) {
  // Regression: after an extension, an observed row's brand-new columns
  // must not start at zero evidence — accumulated evidence is negative,
  // so a zero entry would make the never-visited cell the row's most
  // probable destination.
  Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  // Heavy history: row 4 almost always stays at 4.
  for (int k = 0; k < 200; ++k) matrix.ObserveTransition(4, 4, grid, kernel);

  const std::size_t old_cols = grid.Cols();
  const auto ext = grid.ExtendToInclude({3.4, 1.5}, 3.0, 3.0);
  ASSERT_TRUE(ext.has_value());
  ASSERT_FALSE(ext->Empty());
  matrix.ApplyExtension(*ext, old_cols, grid, kernel);

  const std::size_t new4 = Grid2D::RemapIndex(4, old_cols, *ext);
  EXPECT_EQ(matrix.ArgMax(new4), new4);
  EXPECT_EQ(matrix.RankOf(new4, new4), 1u);
  // The adjacent brand-new cell ranks below the observed self-transition
  // and its probability is small.
  const std::size_t new_cell = grid.CellCount() - 1;
  EXPECT_GT(matrix.RankOf(new4, new_cell), 1u);
  EXPECT_LT(matrix.Probability(new4, new_cell),
            matrix.Probability(new4, new4));
}

TEST(TransitionMatrix, LikelihoodWeightScalesUpdateStrength) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix weak = TransitionMatrix::Prior(grid, kernel);
  TransitionMatrix strong = TransitionMatrix::Prior(grid, kernel);
  weak.ObserveTransition(4, 0, grid, kernel, 0.2);
  strong.ObserveTransition(4, 0, grid, kernel, 5.0);
  EXPECT_GT(strong.Probability(4, 0), weak.Probability(4, 0));
}

TEST(TransitionDistanceHistogram, CountsByChebyshevDistance) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  matrix.ObserveTransition(4, 4, grid, kernel);  // d=0
  matrix.ObserveTransition(4, 4, grid, kernel);  // d=0
  matrix.ObserveTransition(4, 1, grid, kernel);  // d=1
  matrix.ObserveTransition(0, 8, grid, kernel);  // d=2
  const auto hist = TransitionDistanceHistogram(matrix, grid);
  ASSERT_GE(hist.size(), 3u);
  EXPECT_EQ(hist[0], 2u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 1u);
}

TEST(TransitionMatrix, EmptyMatrixQueriesAreGuarded) {
  // Regression: Probability/RowDistribution/ArgMax/RankOf used to read
  // PosteriorLogW(from, 0) unconditionally — an out-of-bounds read on a
  // default-constructed (cells_ == 0) matrix.
  const TransitionMatrix matrix;
  EXPECT_EQ(matrix.CellCount(), 0u);
  EXPECT_EQ(matrix.Probability(0, 0), 0.0);
  EXPECT_TRUE(matrix.RowDistribution(0).empty());
  EXPECT_EQ(matrix.ArgMax(0), 0u);
  EXPECT_EQ(matrix.RankOf(0, 0), 0u);
  const TransitionScore score = matrix.ScoreTransition(0, 0);
  EXPECT_EQ(score.probability, 0.0);
  EXPECT_EQ(score.rank, 0u);
}

TEST(TransitionMatrix, ScoreTransitionMatchesSeparateQueriesBitwise) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  matrix.ObserveTransition(4, 1, grid, kernel, 0.7, 0.95);
  matrix.ObserveTransition(4, 4, grid, kernel);
  matrix.ObserveTransition(2, 0, grid, kernel, 1.3, 0.9);

  for (std::size_t from = 0; from < matrix.CellCount(); ++from) {
    for (std::size_t to = 0; to < matrix.CellCount(); ++to) {
      const OracleScore expect = Oracle(matrix, from, to);
      // First score after the writes: the cold fused pass.
      const TransitionScore cold = matrix.ScoreTransition(from, to);
      EXPECT_TRUE(BitEqual(cold.probability, expect.probability))
          << from << "->" << to;
      EXPECT_EQ(cold.rank, expect.rank) << from << "->" << to;
      // Repeated scores: cached stats, then the sorted rank cache (the
      // prior's rows are full of exact ties, exercising the tie-break).
      for (int repeat = 0; repeat < 3; ++repeat) {
        const TransitionScore warm = matrix.ScoreTransition(from, to);
        EXPECT_TRUE(BitEqual(warm.probability, expect.probability))
            << from << "->" << to << " repeat " << repeat;
        EXPECT_EQ(warm.rank, expect.rank)
            << from << "->" << to << " repeat " << repeat;
      }
      // The unfused queries agree too.
      EXPECT_TRUE(BitEqual(matrix.Probability(from, to),
                           expect.probability));
      EXPECT_EQ(matrix.RankOf(from, to), expect.rank);
    }
  }

  // A write invalidates the row's caches.
  matrix.ObserveTransition(4, 0, grid, kernel, 0.7, 0.95);
  const OracleScore expect = Oracle(matrix, 4, 0);
  const TransitionScore after = matrix.ScoreTransition(4, 0);
  EXPECT_TRUE(BitEqual(after.probability, expect.probability));
  EXPECT_EQ(after.rank, expect.rank);
}

// RankOf on its own (the engine's rank-only scoring) against the oracle:
// on cold rows it runs the split counting scan, on warm rows the sorted
// cache. Kernel-shaped rows are symmetric about their center cell, so
// most destinations have exact ties both below and above their index.
TEST(TransitionMatrix, RankOfMatchesOracleWithTiesOnBothSides) {
  const Grid2D grid(IntervalList::Uniform(0.0, 5.0, 5),
                    IntervalList::Uniform(0.0, 5.0, 5));
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  // Row 12 (the center) keeps its symmetry: the update adds the equally
  // symmetric prior row 12. Row 3's update is off-center.
  matrix.ObserveTransition(12, 12, grid, kernel);
  matrix.ObserveTransition(3, 9, grid, kernel, 0.7, 0.95);
  const std::size_t s = matrix.CellCount();

  std::size_t tied_both_sides = 0;
  for (std::size_t from = 0; from < s; ++from) {
    const auto w = [&](std::size_t j) {
      return matrix.PriorLogW(from, j) + matrix.Evidence()[from * s + j];
    };
    for (std::size_t to = 0; to < s; ++to) {
      bool below = false, above = false;
      for (std::size_t j = 0; j < s; ++j) {
        if (j != to && w(j) == w(to)) (j < to ? below : above) = true;
      }
      if (below && above) ++tied_both_sides;
      // RankOf fills no cache, so the row stays cold for every `to`.
      EXPECT_EQ(matrix.RankOf(from, to), Oracle(matrix, from, to).rank)
          << "cold " << from << "->" << to;
    }
  }
  EXPECT_GT(tied_both_sides, s);

  // Two scores of an unchanged row fill its stats, then its sorted
  // cache; RankOf then answers from the sorted copy.
  for (std::size_t from = 0; from < s; ++from) {
    (void)matrix.ScoreTransition(from, 0);
    (void)matrix.ScoreTransition(from, 0);
    for (std::size_t to = 0; to < s; ++to) {
      EXPECT_EQ(matrix.RankOf(from, to), Oracle(matrix, from, to).rank)
          << "warm " << from << "->" << to;
    }
  }

  // A write turns the row cold again.
  matrix.ObserveTransition(12, 7, grid, kernel);
  for (std::size_t to = 0; to < s; ++to) {
    EXPECT_EQ(matrix.RankOf(12, to), Oracle(matrix, 12, to).rank)
        << "rewritten 12->" << to;
  }
}

TEST(TransitionMatrix, PriorAndStencilTrackGridExtension) {
  // After ExtendToInclude + ApplyExtension the stencil must match the
  // grown shape and every prior entry must equal direct kernel
  // evaluation bitwise — for both kernels and all three metrics.
  KernelConfig configs[4];
  configs[0].type = KernelConfig::Type::kTriangular;
  for (int i = 1; i < 4; ++i) {
    configs[i].type = KernelConfig::Type::kExponential;
    configs[i].w = 2.0;
  }
  configs[1].metric = CellMetric::kChebyshev;
  configs[2].metric = CellMetric::kManhattan;
  configs[3].metric = CellMetric::kEuclidean;

  for (const KernelConfig& config : configs) {
    const auto kernel = MakeKernel(config);
    // Degenerate 1 x 4 start: extensions may grow either dimension.
    Grid2D grid(IntervalList::Uniform(0.0, 1.0, 1),
                IntervalList::Uniform(0.0, 4.0, 4));
    TransitionMatrix matrix = TransitionMatrix::Prior(grid, *kernel);
    matrix.ObserveTransition(1, 2, grid, *kernel);

    const std::size_t old_cols = grid.Cols();
    const auto ext = grid.ExtendToInclude({-0.8, 4.3}, 2.0, 2.0);
    ASSERT_TRUE(ext.has_value());
    ASSERT_FALSE(ext->Empty());
    matrix.ApplyExtension(*ext, old_cols, grid, *kernel);

    ASSERT_TRUE(matrix.Stencil().Matches(grid.Rows(), grid.Cols()));
    ASSERT_EQ(matrix.CellCount(), grid.CellCount());
    for (std::size_t i = 0; i < matrix.CellCount(); ++i) {
      const CellCoord ci = grid.CoordOf(i);
      for (std::size_t j = 0; j < matrix.CellCount(); ++j) {
        const CellCoord cj = grid.CoordOf(j);
        EXPECT_TRUE(BitEqual(matrix.PriorLogW(i, j),
                             kernel->LogWeight(std::abs(ci.i1 - cj.i1),
                                               std::abs(ci.i2 - cj.i2))))
            << kernel->Describe() << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(TransitionMatrix, ExtensionBackfillWithForgetting) {
  // The backfill reconstructs a new column's evidence from the row's
  // empirical counts: likelihood_weight * sum(count_d * logw(d, new)),
  // summed in ascending destination order. Pin it bitwise for a
  // forgetting < 1 history (the reconstruction is approximate w.r.t.
  // what Eq. (2) would have accumulated, but exactly defined).
  Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  const double weight = 0.7, forgetting = 0.9;
  matrix.ObserveTransition(4, 1, grid, kernel, weight, forgetting);
  matrix.ObserveTransition(4, 1, grid, kernel, weight, forgetting);
  matrix.ObserveTransition(4, 4, grid, kernel, weight, forgetting);
  matrix.ObserveTransition(2, 0, grid, kernel, weight, forgetting);

  // Old-grid counts per row, before the extension remaps them.
  const std::vector<std::uint32_t> old_counts = matrix.Counts();
  const std::size_t old_cells = matrix.CellCount();

  const std::size_t old_cols = grid.Cols();
  const auto ext = grid.ExtendToInclude({3.4, 1.5}, 3.0, 3.0);
  ASSERT_TRUE(ext.has_value());
  ASSERT_FALSE(ext->Empty());
  matrix.ApplyExtension(*ext, old_cols, grid, kernel, weight);

  std::vector<bool> is_old(grid.CellCount(), false);
  for (std::size_t i = 0; i < old_cells; ++i) {
    is_old[Grid2D::RemapIndex(i, old_cols, *ext)] = true;
  }
  const std::size_t s = matrix.CellCount();
  for (std::size_t i = 0; i < old_cells; ++i) {
    const std::size_t ni = Grid2D::RemapIndex(i, old_cols, *ext);
    for (std::size_t nj = 0; nj < s; ++nj) {
      if (is_old[nj]) continue;
      // Reference sum in the pinned order: ascending old destination.
      double evidence = 0.0;
      bool any = false;
      for (std::size_t j = 0; j < old_cells; ++j) {
        const std::uint32_t c = old_counts[i * old_cells + j];
        if (c == 0) continue;
        any = true;
        const CellCoord cd =
            grid.CoordOf(Grid2D::RemapIndex(j, old_cols, *ext));
        const CellCoord cn = grid.CoordOf(nj);
        evidence += static_cast<double>(c) *
                    kernel.LogWeight(std::abs(cd.i1 - cn.i1),
                                     std::abs(cd.i2 - cn.i2));
      }
      const double expected = any ? weight * evidence : 0.0;
      EXPECT_TRUE(BitEqual(matrix.Evidence()[ni * s + nj], expected))
          << "row " << ni << " new col " << nj;
      // And the backfilled column must not outrank real history.
      if (any) {
        EXPECT_GT(matrix.RankOf(ni, nj), 1u);
      }
    }
  }
}

TEST(TransitionMatrix, FromStateRejectsWrongSizes) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  EXPECT_THROW((void)TransitionMatrix::FromState(
                   grid, kernel, std::vector<double>(3, 0.0),
                   std::vector<std::uint32_t>(81, 0), 0),
               std::invalid_argument);
  EXPECT_THROW((void)TransitionMatrix::FromState(
                   grid, kernel, std::vector<double>(81, 0.0),
                   std::vector<std::uint32_t>(80, 0), 0),
               std::invalid_argument);
}

TEST(TransitionMatrix, FromStateEqualsTheMatrixItWasSavedFrom) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  matrix.ObserveTransition(0, 4, grid, kernel, 0.7, 0.9);
  matrix.ObserveTransition(4, 8, grid, kernel, 0.7, 0.9);
  matrix.ObserveTransition(0, 1, grid, kernel, 0.7, 0.9);
  const TransitionMatrix restored = TransitionMatrix::FromState(
      grid, kernel, matrix.Evidence(), matrix.Counts(),
      matrix.ObservedCount());
  EXPECT_EQ(restored.ObservedCount(), 3u);
  EXPECT_EQ(restored.Counts(), matrix.Counts());
  for (std::size_t i = 0; i < 81; ++i) {
    EXPECT_TRUE(BitEqual(restored.Evidence()[i], matrix.Evidence()[i]));
    EXPECT_TRUE(BitEqual(restored.PriorLogW(i / 9, i % 9),
                         matrix.PriorLogW(i / 9, i % 9)));
  }
  for (std::size_t from = 0; from < 9; ++from) {
    for (std::size_t to = 0; to < 9; ++to) {
      EXPECT_TRUE(BitEqual(restored.Probability(from, to),
                           matrix.Probability(from, to)));
      EXPECT_EQ(restored.RankOf(from, to), matrix.RankOf(from, to));
    }
  }
  restored.CheckInvariants();
}

}  // namespace
}  // namespace pmcorr
