// Tests for PairModel: the full observe/score/alarm/update loop.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/model.h"
#include "io/model_io.h"

namespace pmcorr {
namespace {

// Two correlated series: y is a noisy saturating function of x, which
// itself follows a smooth daily-ish cycle. Transitions are gradual, as
// the paper assumes.
void MakeHistory(std::size_t n, std::uint64_t seed, std::vector<double>* xs,
                 std::vector<double>* ys) {
  Rng rng(seed);
  xs->resize(n);
  ys->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double load =
        60.0 + 40.0 * std::sin(static_cast<double>(i) * 0.026) +
        rng.Normal(0.0, 2.0);
    (*xs)[i] = load;
    (*ys)[i] = 100.0 * load / (load + 50.0) + rng.Normal(0.0, 0.5);
  }
}

ModelConfig DefaultConfig() {
  ModelConfig config;
  config.partition.units = 40;
  config.partition.max_intervals = 12;
  return config;
}

TEST(PairModel, LearnBuildsGridCoveringHistory) {
  std::vector<double> xs, ys;
  MakeHistory(1000, 3, &xs, &ys);
  const PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_TRUE(model.Grid().CellOf({xs[i], ys[i]}).has_value());
  }
  EXPECT_GT(model.Matrix().ObservedCount(), 900u);
}

TEST(PairModel, LearnRejectsBadInput) {
  const std::vector<double> xs = {1.0, 2.0};
  const std::vector<double> ys = {1.0};
  EXPECT_THROW(PairModel::Learn(xs, ys, DefaultConfig()),
               std::invalid_argument);
  EXPECT_THROW(PairModel::Learn({}, {}, DefaultConfig()),
               std::invalid_argument);
}

TEST(PairModel, FirstStepHasNoScore) {
  std::vector<double> xs, ys;
  MakeHistory(500, 5, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  const StepOutcome out = model.Step(xs[0], ys[0]);
  EXPECT_FALSE(out.has_score);
  EXPECT_FALSE(out.outlier);
  ASSERT_TRUE(out.cell.has_value());
}

TEST(PairModel, NormalTransitionsScoreHigh) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 7, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());

  std::vector<double> tx, ty;
  MakeHistory(400, 8, &tx, &ty);  // same process, fresh noise
  double total = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    const StepOutcome out = model.Step(tx[i], ty[i]);
    if (out.has_score) {
      total += out.fitness;
      ++scored;
    }
  }
  ASSERT_GT(scored, 300u);
  // The paper reports average fitness between 0.8 and 0.98 on normal data.
  EXPECT_GT(total / static_cast<double>(scored), 0.8);
}

TEST(PairModel, AnomalousJumpScoresLowAndOutlierScoresZero) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 9, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());

  // Establish a normal previous point.
  model.Step(xs[10], ys[10]);
  // A correlation-breaking jump inside the grid: x mid-range, y extreme.
  const double weird_x = xs[10];
  const double weird_y = 99.0;  // saturation zone while load is moderate
  const StepOutcome odd = model.Step(weird_x, weird_y);
  if (odd.has_score && !odd.outlier) {
    EXPECT_LT(odd.fitness, 0.7);
  }

  // A far outlier beyond the extension margin: fitness exactly 0.
  model.Step(xs[11], ys[11]);
  const StepOutcome out = model.Step(1e6, -1e6);
  EXPECT_TRUE(out.outlier);
  EXPECT_TRUE(out.has_score);
  EXPECT_DOUBLE_EQ(out.fitness, 0.0);
  EXPECT_DOUBLE_EQ(out.probability, 0.0);
  EXPECT_FALSE(out.cell.has_value());

  // The sample after an outlier has no source cell -> no score.
  const StepOutcome next = model.Step(xs[12], ys[12]);
  EXPECT_FALSE(next.has_score);
}

TEST(PairModel, AdaptiveExtendsGridUnderDrift) {
  std::vector<double> xs, ys;
  MakeHistory(1500, 11, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.lambda1 = 3.0;
  config.lambda2 = 3.0;
  PairModel model = PairModel::Learn(xs, ys, config);

  const double old_hi = model.Grid().Dim1().Hi();
  // Drift just past the boundary — within lambda * r_avg.
  const double drift_x = old_hi + 0.4 * model.Grid().InitialAvgWidthDim1();
  model.Step(xs[0], ys[0]);
  const StepOutcome out = model.Step(drift_x, ys[1]);
  EXPECT_TRUE(out.extended_grid);
  EXPECT_FALSE(out.outlier);
  EXPECT_GT(model.Grid().Dim1().Hi(), old_hi);
  EXPECT_EQ(model.Stats().extensions, 1u);
}

TEST(PairModel, OfflineModelNeverChanges) {
  std::vector<double> xs, ys;
  MakeHistory(1500, 13, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.adaptive = false;
  PairModel model = PairModel::Learn(xs, ys, config);

  const std::size_t cells = model.Matrix().CellCount();
  const auto evidence = model.Matrix().Evidence();
  model.Step(xs[0], ys[0]);
  model.Step(xs[1], ys[1]);
  model.Step(model.Grid().Dim1().Hi() + 0.1, ys[2]);  // just outside
  EXPECT_EQ(model.Matrix().CellCount(), cells);        // no extension
  EXPECT_EQ(model.Matrix().Evidence(), evidence);      // no updates
  EXPECT_EQ(model.Stats().matrix_updates, 0u);
}

TEST(PairModel, AlarmsFireOnThresholds) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 15, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.fitness_alarm_threshold = 0.5;
  PairModel model = PairModel::Learn(xs, ys, config);

  model.Step(xs[0], ys[0]);
  const StepOutcome out = model.Step(1e7, 1e7);
  EXPECT_TRUE(out.alarm);
  EXPECT_GE(model.Stats().alarms, 1u);
}

TEST(PairModel, NoAlarmWhenThresholdsDisabled) {
  std::vector<double> xs, ys;
  MakeHistory(800, 17, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  model.Step(xs[0], ys[0]);
  const StepOutcome out = model.Step(1e7, 1e7);  // extreme outlier
  EXPECT_TRUE(out.outlier);
  EXPECT_FALSE(out.alarm);  // both thresholds default to 0 = disabled
}

TEST(PairModel, AlarmedTransitionDoesNotUpdateMatrix) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 19, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.fitness_alarm_threshold = 0.99;  // nearly everything alarms
  PairModel model = PairModel::Learn(xs, ys, config);
  model.Step(xs[0], ys[0]);
  const auto updates_before = model.Stats().matrix_updates;
  // Pick a destination that is unlikely to be rank 1.
  const StepOutcome out = model.Step(xs[0], ys[300]);
  if (out.alarm) {
    EXPECT_EQ(model.Stats().matrix_updates, updates_before);
  }
}

TEST(PairModel, ResetSequenceSuppressesNextScore) {
  std::vector<double> xs, ys;
  MakeHistory(600, 21, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  model.Step(xs[0], ys[0]);
  model.ResetSequence();
  const StepOutcome out = model.Step(xs[1], ys[1]);
  EXPECT_FALSE(out.has_score);
}

TEST(PairModel, MissingSamplesAreSkippedNotAlarmed) {
  std::vector<double> xs, ys;
  MakeHistory(800, 25, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.fitness_alarm_threshold = 0.5;  // alarms armed
  PairModel model = PairModel::Learn(xs, ys, config);

  model.Step(xs[0], ys[0]);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const StepOutcome gap = model.Step(nan, ys[1]);
  EXPECT_TRUE(gap.missing);
  EXPECT_FALSE(gap.has_score);
  EXPECT_FALSE(gap.alarm);
  EXPECT_FALSE(gap.outlier);

  // The sample after the gap has no source cell -> unscored, and the one
  // after that scores normally again.
  const StepOutcome after = model.Step(xs[2], ys[2]);
  EXPECT_FALSE(after.has_score);
  const StepOutcome resumed = model.Step(xs[3], ys[3]);
  EXPECT_TRUE(resumed.has_score);

  const StepOutcome inf_gap =
      model.Step(xs[4], std::numeric_limits<double>::infinity());
  EXPECT_TRUE(inf_gap.missing);
}

TEST(PairModel, LearnToleratesGapsInHistory) {
  std::vector<double> xs, ys;
  MakeHistory(1000, 27, &xs, &ys);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 50; i < 80; ++i) xs[i] = nan;  // a collector outage
  ys[500] = nan;
  const PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  EXPECT_GT(model.Matrix().ObservedCount(), 900u);
  // Grid covers the finite data.
  EXPECT_TRUE(model.Grid().CellOf({xs[100], ys[100]}).has_value());

  std::vector<double> all_nan(10, nan);
  EXPECT_THROW(PairModel::Learn(all_nan, all_nan, DefaultConfig()),
               std::invalid_argument);
}

TEST(PairModel, StatsCountersConsistent) {
  std::vector<double> xs, ys;
  MakeHistory(1000, 23, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  for (std::size_t i = 0; i < 200; ++i) model.Step(xs[i], ys[i]);
  const PairModelStats& stats = model.Stats();
  EXPECT_EQ(stats.steps, 200u);
  EXPECT_LE(stats.scored, stats.steps);
  EXPECT_LE(stats.matrix_updates, stats.scored);
}

std::string Saved(const PairModel& model) {
  std::ostringstream out;
  SavePairModel(model, out);
  return out.str();
}

// Rank-only scoring differs from full scoring only in the probability it
// leaves out: over a stream with grid extensions, outliers, gaps and
// alarmed (non-updating) jumps, every other field and the final model
// bytes agree, for both kernels and every update rule; with an armed
// delta bound the probability is computed and bit-equal too.
TEST(PairModel, RankOnlyStepMatchesFullStep) {
  std::vector<double> xs, ys;
  MakeHistory(1600, 29, &xs, &ys);
  const std::span<const double> hx(xs.data(), 1000);
  const std::span<const double> hy(ys.data(), 1000);
  for (const auto kernel : {KernelConfig::Type::kTriangular,
                            KernelConfig::Type::kExponential}) {
    for (const double forgetting : {1.0, 0.95}) {
      for (const double weight : {1.0, 0.7}) {
        for (const double delta : {0.0, 0.02}) {
          ModelConfig config = DefaultConfig();
          config.kernel.type = kernel;
          config.forgetting = forgetting;
          config.likelihood_weight = weight;
          config.delta = delta;
          config.fitness_alarm_threshold = 0.2;
          PairModel full = PairModel::Learn(hx, hy, config);
          PairModel rank_only = full;
          const std::string label =
              "kernel " + std::to_string(static_cast<int>(kernel)) +
              " forgetting " + std::to_string(forgetting) + " weight " +
              std::to_string(weight) + " delta " + std::to_string(delta);

          std::size_t probability_alarms = 0;
          for (std::size_t t = 1000; t < xs.size(); ++t) {
            double x = xs[t];
            double y = ys[t];
            if (t % 61 == 0) {
              x = 1e7;  // outlier
            } else if (t % 47 == 0) {
              y = std::numeric_limits<double>::quiet_NaN();  // gap
            } else if (t % 29 == 0) {
              y = 100.0 - y;  // decorrelated jump
            } else if (t >= 1300 && t < 1312) {
              // Drift just past the boundary: one extension per sample.
              x = full.Grid().Dim1().Hi() +
                  0.4 * full.Grid().InitialAvgWidthDim1();
            }
            const StepOutcome a = full.Step(x, y);
            const StepOutcome b = rank_only.Step(x, y, ScoreMode::kRankOnly);
            ASSERT_EQ(a.has_score, b.has_score) << label << " t " << t;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a.fitness),
                      std::bit_cast<std::uint64_t>(b.fitness))
                << label << " t " << t;
            ASSERT_EQ(a.rank, b.rank) << label << " t " << t;
            ASSERT_EQ(a.alarm, b.alarm) << label << " t " << t;
            ASSERT_EQ(a.outlier, b.outlier) << label << " t " << t;
            ASSERT_EQ(a.missing, b.missing) << label << " t " << t;
            ASSERT_EQ(a.extended_grid, b.extended_grid)
                << label << " t " << t;
            ASSERT_EQ(a.cell, b.cell) << label << " t " << t;
            if (delta > 0.0) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(a.probability),
                        std::bit_cast<std::uint64_t>(b.probability))
                  << label << " t " << t;
              if (a.has_score && !a.outlier && a.probability < delta) {
                ++probability_alarms;
              }
            } else {
              ASSERT_EQ(b.probability, 0.0) << label << " t " << t;
            }
          }
          EXPECT_EQ(Saved(full), Saved(rank_only)) << label;
          // The stream reached every path it is meant to cover.
          EXPECT_GT(full.Stats().extensions, 0u) << label;
          EXPECT_GT(full.Stats().outliers, 0u) << label;
          EXPECT_GT(full.Stats().alarms, full.Stats().outliers) << label;
          if (delta > 0.0) {
            EXPECT_GT(probability_alarms, 0u) << label;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pmcorr
