// Tests for PairModel persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "io/model_io.h"

namespace pmcorr {
namespace {

PairModel TrainedModel(std::uint64_t seed = 3, bool exponential = false) {
  Rng rng(seed);
  std::vector<double> xs(800), ys(800);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double load =
        50.0 + 30.0 * std::sin(static_cast<double>(i) * 0.04) +
        rng.Normal(0.0, 1.0);
    xs[i] = load;
    ys[i] = 100.0 * load / (load + 40.0) + rng.Normal(0.0, 0.4);
  }
  ModelConfig config;
  config.partition.units = 30;
  config.partition.max_intervals = 8;
  config.delta = 1e-4;
  config.fitness_alarm_threshold = 0.2;
  config.forgetting = 0.995;
  if (exponential) {
    config.kernel.type = KernelConfig::Type::kExponential;
    config.kernel.w = 2.5;
    config.kernel.metric = CellMetric::kManhattan;
  }
  return PairModel::Learn(xs, ys, config);
}

TEST(ModelIo, RoundTripPreservesStructureAndPosterior) {
  const PairModel original = TrainedModel();
  std::stringstream stream;
  SavePairModel(original, stream);
  const PairModel loaded = LoadPairModel(stream);

  ASSERT_EQ(loaded.Grid().CellCount(), original.Grid().CellCount());
  EXPECT_EQ(loaded.Grid().Rows(), original.Grid().Rows());
  EXPECT_DOUBLE_EQ(loaded.Grid().Dim1().Lo(), original.Grid().Dim1().Lo());
  EXPECT_DOUBLE_EQ(loaded.Grid().Dim2().Hi(), original.Grid().Dim2().Hi());
  EXPECT_DOUBLE_EQ(loaded.Grid().InitialAvgWidthDim1(),
                   original.Grid().InitialAvgWidthDim1());
  EXPECT_EQ(loaded.Matrix().ObservedCount(),
            original.Matrix().ObservedCount());

  for (std::size_t i = 0; i < original.Grid().CellCount(); ++i) {
    for (std::size_t j = 0; j < original.Grid().CellCount(); ++j) {
      ASSERT_DOUBLE_EQ(loaded.Matrix().Probability(i, j),
                       original.Matrix().Probability(i, j));
      ASSERT_EQ(loaded.Matrix().CountOf(i, j), original.Matrix().CountOf(i, j));
    }
  }
}

TEST(ModelIo, RoundTripPreservesConfig) {
  const PairModel original = TrainedModel(5, /*exponential=*/true);
  std::stringstream stream;
  SavePairModel(original, stream);
  const PairModel loaded = LoadPairModel(stream);
  EXPECT_EQ(loaded.Config().kernel.type, KernelConfig::Type::kExponential);
  EXPECT_DOUBLE_EQ(loaded.Config().kernel.w, 2.5);
  EXPECT_EQ(loaded.Config().kernel.metric, CellMetric::kManhattan);
  EXPECT_DOUBLE_EQ(loaded.Config().delta, original.Config().delta);
  EXPECT_DOUBLE_EQ(loaded.Config().forgetting, original.Config().forgetting);
  EXPECT_EQ(loaded.Config().adaptive, original.Config().adaptive);
}

TEST(ModelIo, LoadedModelBehavesIdentically) {
  const PairModel original = TrainedModel(7);
  std::stringstream stream;
  SavePairModel(original, stream);
  PairModel loaded = LoadPairModel(stream);
  PairModel reference = original;  // copy continues alongside

  reference.ResetSequence();
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const double load =
        50.0 + 30.0 * std::sin(i * 0.04) + rng.Normal(0.0, 1.0);
    const double y = 100.0 * load / (load + 40.0);
    const StepOutcome a = reference.Step(load, y);
    const StepOutcome b = loaded.Step(load, y);
    ASSERT_EQ(a.has_score, b.has_score);
    ASSERT_DOUBLE_EQ(a.fitness, b.fitness);
    ASSERT_DOUBLE_EQ(a.probability, b.probability);
    ASSERT_EQ(a.alarm, b.alarm);
  }
}

TEST(ModelIo, RoundTripAfterExtension) {
  PairModel model = TrainedModel(9);
  // Force an extension, then round-trip; r_avg must persist.
  const double drift =
      model.Grid().Dim1().Hi() + 0.3 * model.Grid().InitialAvgWidthDim1();
  model.Step(50.0, 55.0);
  const StepOutcome out = model.Step(drift, 55.0);
  ASSERT_TRUE(out.extended_grid);

  std::stringstream stream;
  SavePairModel(model, stream);
  const PairModel loaded = LoadPairModel(stream);
  EXPECT_EQ(loaded.Grid().CellCount(), model.Grid().CellCount());
  EXPECT_DOUBLE_EQ(loaded.Grid().InitialAvgWidthDim1(),
                   model.Grid().InitialAvgWidthDim1());
}

// Fuzz-style robustness: a valid model file truncated at any byte
// boundary must throw a clean std::runtime_error — never crash, hang or
// silently succeed with a half-loaded model.
class ModelIoTruncation : public ::testing::TestWithParam<int> {};

TEST_P(ModelIoTruncation, TruncatedFilesThrowCleanly) {
  const PairModel original = TrainedModel(21);
  std::stringstream stream;
  SavePairModel(original, stream);
  const std::string full = stream.str();

  // Truncate at a fraction of the full length (never the whole file).
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(full.size()) * GetParam() / 100.0);
  std::stringstream truncated(full.substr(0, cut));
  EXPECT_THROW(LoadPairModel(truncated), std::runtime_error)
      << "cut at " << cut << " of " << full.size();
}

INSTANTIATE_TEST_SUITE_P(CutPoints, ModelIoTruncation,
                         ::testing::Values(0, 1, 3, 10, 25, 50, 75, 90, 99));

TEST(ModelIo, CorruptedFieldsThrowCleanly) {
  const PairModel original = TrainedModel(23);
  std::stringstream stream;
  SavePairModel(original, stream);
  std::string bytes = stream.str();

  // The kernel-type byte follows the 16-byte magic; 0xFF names no
  // kernel.
  bytes[16] = static_cast<char>(0xFF);
  std::stringstream corrupted(bytes);
  EXPECT_THROW(LoadPairModel(corrupted), std::runtime_error);
}

TEST(ModelIo, RejectsGarbage) {
  std::stringstream stream("not a model at all");
  EXPECT_THROW(LoadPairModel(stream), std::runtime_error);
  // A model file of the retired text format fails on its magic.
  std::stringstream text("pmcorr-model v1\nkernel 0 2.0 2\n");
  EXPECT_THROW(LoadPairModel(text), std::runtime_error);
  std::stringstream truncated("pmcorr-model v2\n\x00");
  EXPECT_THROW(LoadPairModel(truncated), std::runtime_error);
  EXPECT_THROW(LoadPairModel("/nonexistent/model.txt"), std::runtime_error);
}

TEST(ModelIo, RoundTripKeepsThePreviousCell) {
  PairModel model = TrainedModel(5);
  model.Step(50.0, 55.0);
  ASSERT_TRUE(model.PreviousCell().has_value());
  std::stringstream stream;
  SavePairModel(model, stream);
  PairModel loaded = LoadPairModel(stream);
  EXPECT_EQ(loaded.PreviousCell(), model.PreviousCell());

  // The next transition is scored from that cell in both.
  const StepOutcome a = model.Step(52.0, 56.0);
  const StepOutcome b = loaded.Step(52.0, 56.0);
  ASSERT_TRUE(a.has_score);
  EXPECT_EQ(b.has_score, a.has_score);
  EXPECT_EQ(b.rank, a.rank);
  EXPECT_EQ(b.fitness, a.fitness);
  EXPECT_EQ(b.probability, a.probability);

  // A model without a previous cell restores without one.
  model.ResetSequence();
  std::stringstream reset;
  SavePairModel(model, reset);
  EXPECT_FALSE(LoadPairModel(reset).PreviousCell().has_value());
}

TEST(ModelIo, SaveLoadSaveIsByteIdentical) {
  for (const bool exponential : {false, true}) {
    PairModel model = TrainedModel(31, exponential);
    model.Step(50.0, 55.0);
    std::stringstream first;
    SavePairModel(model, first);
    const std::string bytes = first.str();
    std::stringstream again;
    SavePairModel(LoadPairModel(first), again);
    EXPECT_EQ(again.str(), bytes);
  }
}

}  // namespace
}  // namespace pmcorr
