// Property tests of the binary checkpoint codec (io/monitor_io.h,
// io/model_io.h) over generated monitors. Each monitor is learned on a
// seeded synthetic history, then stepped over rows that drift past its
// grids (extensions), spike far outside them (outliers) and drop values
// (gaps); some pair models are then rebuilt with the states the codec
// must carry bit for bit but that a live stream rarely produces: -0.0
// evidence, and rows with counts but all-zero evidence. Over every
// generated monitor:
//   * save -> load -> save is byte-identical;
//   * a sealed checkpoint cut at every length is rejected, or loads as
//     the whole state when the cut removes exactly the footer, and the
//     path loader falls back a generation;
//   * every single-bit flip in the body fails the CRC, and every flip
//     in the footer is rejected.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint_records.h"
#include "common/rng.h"
#include "io/atomic_file.h"
#include "io/monitor_io.h"

namespace pmcorr {
namespace {

// Generated monitors per property.
constexpr std::uint64_t kSeeds = 6;

bool IsNegativeZero(double v) { return v == 0.0 && std::signbit(v); }

std::string Render(const SystemMonitor& monitor) {
  std::ostringstream out;
  SaveSystemMonitor(monitor, out);
  return out.str();
}

std::unique_ptr<SystemMonitor> FromBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadSystemMonitor(in, 1);
}

std::string Seal(const std::string& body) {
  return body + ckpt::Footer(body.size(), Crc32(body));
}

MeasurementFrame Frame(const std::vector<std::vector<double>>& cols,
                       TimePoint start) {
  MeasurementFrame frame(start, kPaperSamplePeriod);
  for (std::size_t c = 0; c < cols.size(); ++c) {
    MeasurementInfo info;
    info.machine = MachineId(static_cast<std::int32_t>(c / 2));
    info.kind = c % 2 == 0 ? MetricKind::kCpuUtilization
                           : MetricKind::kIfOutOctetsRate;
    info.name = "m" + std::to_string(c) + "@host";
    frame.Add(info, TimeSeries(start, kPaperSamplePeriod, cols[c]));
  }
  return frame;
}

struct Generated {
  std::unique_ptr<SystemMonitor> monitor;
  bool extended = false;  // some pair grew its grid
  bool outlier = false;   // some pair saw an outlier
};

// A monitor over `measurements` correlated series. `max_intervals`
// bounds each grid dimension, and with it the checkpoint's size.
Generated Generate(std::uint64_t seed, std::size_t measurements,
                   std::size_t max_intervals) {
  Rng rng(seed);
  const std::size_t history_len = 300;
  const std::size_t stream_len = 60;
  std::vector<double> gain(measurements), offset(measurements);
  for (std::size_t c = 0; c < measurements; ++c) {
    gain[c] = rng.Uniform(0.5, 2.5);
    offset[c] = rng.Uniform(0.0, 40.0);
  }
  const auto sample = [&](std::size_t i, std::size_t c) {
    const double load =
        60.0 + 30.0 * std::sin(static_cast<double>(i) * 0.04);
    return gain[c] * load + offset[c] + rng.Normal(0.0, 1.0);
  };
  std::vector<std::vector<double>> history(measurements,
                                           std::vector<double>(history_len));
  for (std::size_t i = 0; i < history_len; ++i) {
    for (std::size_t c = 0; c < measurements; ++c) {
      history[c][i] = sample(i, c);
    }
  }

  MonitorConfig config;
  config.model.partition.units = 20;
  config.model.partition.max_intervals = max_intervals;
  config.model.forgetting = seed % 2 == 0 ? 1.0 : 0.97;
  config.model.likelihood_weight = seed % 3 == 0 ? 0.7 : 1.0;
  if (seed % 2 == 1) {
    config.model.kernel.type = KernelConfig::Type::kExponential;
    config.model.kernel.w = 2.5;
  }
  config.threads = 1;
  SystemMonitor learned(Frame(history, 0),
                        MeasurementGraph::FullMesh(measurements), config);

  // The stream: on cadence, with a slow drift past the top of every
  // grid (extensions), one spike far outside (outliers) and one gap.
  const auto start = static_cast<TimePoint>(history_len) * kPaperSamplePeriod;
  std::vector<double> row(measurements);
  for (std::size_t t = 0; t < stream_len; ++t) {
    const std::size_t i = history_len + t;
    const double drift = t >= 20 && t < 40 ? 2.0 * (t - 20.0) : 0.0;
    for (std::size_t c = 0; c < measurements; ++c) {
      row[c] = sample(i, c) + gain[c] * drift;
    }
    if (t == 45) row[0] += 1e5;
    if (t == 50) row[1] = std::numeric_limits<double>::quiet_NaN();
    learned.Step(row, start + static_cast<TimePoint>(t) * kPaperSamplePeriod);
  }

  Generated out;
  std::vector<PairModel> models;
  for (std::size_t p = 0; p < learned.Graph().PairCount(); ++p) {
    const PairModel& model = learned.Model(p);
    out.extended = out.extended || model.Stats().extensions > 0;
    out.outlier = out.outlier || model.Stats().outliers > 0;
    if (p % 2 == 1) {
      models.push_back(model);
      continue;
    }
    // Rebuild the even pairs with two stateless rows filled in: one
    // with -0.0 evidence in every other column, one with counts but
    // all-zero evidence.
    const TransitionMatrix& m = model.Matrix();
    const std::size_t s = m.CellCount();
    std::vector<double> evidence = m.Evidence();
    std::vector<std::uint32_t> counts = m.Counts();
    std::uint64_t observed = m.ObservedCount();
    std::vector<std::size_t> stateless;
    for (std::size_t i = 0; i < s; ++i) {
      bool any = false;
      for (std::size_t j = 0; j < s; ++j) {
        any = any || evidence[i * s + j] != 0.0 || counts[i * s + j] != 0;
      }
      if (!any) stateless.push_back(i);
    }
    if (stateless.size() < 2) {
      models.push_back(model);
      continue;
    }
    const std::size_t zero_row = stateless[rng.UniformInt(
        0, static_cast<std::int64_t>(stateless.size()) - 1)];
    for (std::size_t j = 0; j < s; j += 2) evidence[zero_row * s + j] = -0.0;
    const std::size_t count_row =
        stateless.front() == zero_row ? stateless[1] : stateless.front();
    for (std::size_t j = 0; j < s; j += 3) {
      const auto n = static_cast<std::uint32_t>(1 + j % 4);
      counts[count_row * s + j] = n;
      observed += n;
    }
    models.push_back(PairModel::FromParts(
        model.Config(), model.Grid(),
        TransitionMatrix::FromState(model.Grid(), model.Kernel(),
                                    std::move(evidence), std::move(counts),
                                    observed),
        model.PreviousCell()));
  }
  out.monitor = std::make_unique<SystemMonitor>(
      config, learned.Graph(), learned.Infos(), std::move(models),
      learned.MeasurementAverages(), learned.SystemAverage(),
      learned.StepCount(), learned.Health().Clock());
  return out;
}

TEST(CheckpointCodec, SaveLoadSaveIsByteIdentical) {
  bool any_extended = false, any_outlier = false, any_negative_zero = false;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Generated g = Generate(seed, 3 + seed % 3, 5 + seed % 4);
    any_extended = any_extended || g.extended;
    any_outlier = any_outlier || g.outlier;
    const std::string bytes = Render(*g.monitor);
    const auto loaded = FromBytes(bytes);
    ASSERT_EQ(Render(*loaded), bytes);

    // The round trip is bitwise on the parts the bytes cannot show
    // directly: -0.0 stays negative, and zero rows stay +0.0.
    for (std::size_t p = 0; p < loaded->Graph().PairCount(); ++p) {
      const std::vector<double>& a = g.monitor->Model(p).Matrix().Evidence();
      const std::vector<double>& b = loaded->Model(p).Matrix().Evidence();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(std::signbit(a[k]), std::signbit(b[k])) << "pair " << p;
        any_negative_zero = any_negative_zero || IsNegativeZero(b[k]);
      }
      EXPECT_EQ(loaded->Model(p).Matrix().Counts(),
                g.monitor->Model(p).Matrix().Counts());
      EXPECT_EQ(loaded->Model(p).PreviousCell(),
                g.monitor->Model(p).PreviousCell());
    }
    EXPECT_EQ(loaded->Health().Clock(), g.monitor->Health().Clock());
  }
  // The generator really produced every feature the codec must carry.
  EXPECT_TRUE(any_extended);
  EXPECT_TRUE(any_outlier);
  EXPECT_TRUE(any_negative_zero);
}

TEST(CheckpointCodec, EveryCutIsRejectedOrFallsBackAGeneration) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "pmcorr_codec_cuts";
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Generated older = Generate(seed + 100, 3, 3);
    const Generated g = Generate(seed, 3, 3);
    const std::string body = Render(*g.monitor);
    const std::string sealed = Seal(body);

    // In memory, at every length: the verifier or the decoder rejects
    // the cut. The one exception is the cut that removes exactly the
    // footer — an unsealed rendering — which loads the whole state.
    for (std::size_t len = 0; len < sealed.size(); ++len) {
      const std::string cut = sealed.substr(0, len);
      try {
        const auto loaded = FromBytes(cut);
        ASSERT_EQ(len, body.size()) << "a cut at " << len << " loaded";
        ASSERT_EQ(Render(*loaded), body);
      } catch (const std::runtime_error&) {
        ASSERT_NE(len, body.size());
      }
    }

    // On disk the path loader falls back to generation 1, at a stride
    // through the body and at every length around the footer.
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "monitor.ckpt").string();
    const std::string older_body = Render(*older.monitor);
    {
      std::ofstream g1(path + ".g1", std::ios::binary);
      const std::string bytes = Seal(older_body);
      g1.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    for (std::size_t len = 0; len < sealed.size();
         len += len + 40 < body.size() ? 97 : 1) {
      if (len == body.size()) continue;
      {
        std::ofstream primary(path, std::ios::binary | std::ios::trunc);
        primary.write(sealed.data(), static_cast<std::streamsize>(len));
      }
      CheckpointRecoveryInfo info;
      const auto loaded = LoadSystemMonitor(path, 1, &info);
      ASSERT_EQ(info.generation, 1u) << "cut at " << len;
      ASSERT_EQ(Render(*loaded), older_body);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointCodec, EveryBitFlipInTheBodyFailsTheCrc) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Generated g = Generate(seed, 3, 3);
    const std::string body = Render(*g.monitor);
    std::string sealed = Seal(body);
    for (std::size_t bit = 0; bit < body.size() * 8; ++bit) {
      sealed[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      try {
        (void)VerifyCheckpointTrailer(sealed);
        ADD_FAILURE() << "flip of body bit " << bit << " passed the CRC";
      } catch (const std::runtime_error& error) {
        ASSERT_NE(std::string(error.what()).find("CRC mismatch"),
                  std::string::npos)
            << error.what();
      }
      sealed[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    }
    // A flip in the footer breaks its length, its CRC, or its magic —
    // and without the magic the 20 stray bytes fail the decode.
    for (std::size_t bit = body.size() * 8; bit < sealed.size() * 8; ++bit) {
      sealed[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      EXPECT_THROW(FromBytes(sealed), std::runtime_error)
          << "footer bit " << bit - body.size() * 8;
      sealed[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    }
    EXPECT_EQ(Render(*FromBytes(sealed)), body);
  }
}

}  // namespace
}  // namespace pmcorr
