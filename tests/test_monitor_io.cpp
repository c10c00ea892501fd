// Tests for SystemMonitor checkpointing.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/rng.h"
#include "io/atomic_file.h"
#include "io/framing.h"
#include "io/monitor_io.h"

namespace pmcorr {
namespace {

MeasurementFrame SystemFrame(std::size_t samples, std::uint64_t seed,
                             TimePoint start = 0) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(samples));
  for (std::size_t i = 0; i < samples; ++i) {
    const double load =
        60.0 + 35.0 * std::sin(static_cast<double>(i) * 0.03) +
        rng.Normal(0.0, 1.5);
    cols[0][i] = load + rng.Normal(0.0, 0.8);
    cols[1][i] = 100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.4);
    cols[2][i] = 2.5 * load + 20.0 + rng.Normal(0.0, 2.0);
    cols[3][i] = 0.8 * load + 35.0 + rng.Normal(0.0, 1.5);
  }
  MeasurementFrame frame(start, kPaperSamplePeriod);
  for (int c = 0; c < 4; ++c) {
    MeasurementInfo info;
    info.machine = MachineId(c / 2);
    info.kind = c % 2 == 0 ? MetricKind::kCpuUtilization
                           : MetricKind::kIfOutOctetsRate;
    info.name = "m" + std::to_string(c);
    frame.Add(info,
              TimeSeries(start, kPaperSamplePeriod, std::move(cols[c])));
  }
  return frame;
}

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.model.partition.units = 30;
  config.model.partition.max_intervals = 8;
  config.threads = 2;
  return config;
}

TEST(MonitorIo, RoundTripPreservesStructureAndAggregates) {
  const MeasurementFrame history = SystemFrame(900, 3);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  monitor.Run(SystemFrame(60, 5));

  std::stringstream stream;
  SaveSystemMonitor(monitor, stream);
  const auto loaded = LoadSystemMonitor(stream, 2);

  EXPECT_EQ(loaded->MeasurementCount(), 4u);
  EXPECT_EQ(loaded->Graph().PairCount(), 6u);
  EXPECT_EQ(loaded->StepCount(), monitor.StepCount());
  EXPECT_DOUBLE_EQ(loaded->SystemAverage().Mean(),
                   monitor.SystemAverage().Mean());
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_DOUBLE_EQ(loaded->MeasurementAverages()[a].Mean(),
                     monitor.MeasurementAverages()[a].Mean());
    EXPECT_EQ(loaded->Infos()[a].name, monitor.Infos()[a].name);
    EXPECT_EQ(loaded->Infos()[a].machine, monitor.Infos()[a].machine);
    EXPECT_EQ(loaded->Infos()[a].kind, monitor.Infos()[a].kind);
  }
}

void ExpectSnapshotsEqual(const SystemSnapshot& a, const SystemSnapshot& b) {
  ASSERT_EQ(a.system_score.has_value(), b.system_score.has_value());
  if (a.system_score) {
    EXPECT_EQ(*a.system_score, *b.system_score);
  }
  ASSERT_EQ(a.pair_scores.size(), b.pair_scores.size());
  for (std::size_t p = 0; p < a.pair_scores.size(); ++p) {
    ASSERT_EQ(a.pair_scores[p].has_value(), b.pair_scores[p].has_value());
    if (a.pair_scores[p]) {
      EXPECT_EQ(*a.pair_scores[p], *b.pair_scores[p]);
    }
  }
  EXPECT_EQ(a.alarmed_pairs, b.alarmed_pairs);
  EXPECT_EQ(a.stream_event, b.stream_event);
}

std::string Render(const SystemMonitor& monitor) {
  std::ostringstream out;
  SaveSystemMonitor(monitor, out);
  return out.str();
}

TEST(MonitorIo, RestoredMonitorContinuesIdentically) {
  const MeasurementFrame history = SystemFrame(900, 7);
  SystemMonitor original(history, MeasurementGraph::FullMesh(4),
                         SmallConfig());
  original.Run(SystemFrame(40, 9));

  std::stringstream stream;
  SaveSystemMonitor(original, stream);
  const auto restored = LoadSystemMonitor(stream, 2);

  // Continue both on the rows that follow; the restored copy keeps each
  // pair's previous cell and the guard's clock, so nothing restarts.
  const MeasurementFrame more =
      SystemFrame(50, 11, 40 * kPaperSamplePeriod);
  const auto snaps_a = original.Run(more);
  const auto snaps_b = restored->Run(more);
  ASSERT_EQ(snaps_a.size(), snaps_b.size());
  for (std::size_t t = 0; t < snaps_a.size(); ++t) {
    SCOPED_TRACE("sample " + std::to_string(t));
    ExpectSnapshotsEqual(snaps_a[t], snaps_b[t]);
  }
  EXPECT_EQ(Render(*restored), Render(original));
}

// Steps `monitor` over `frame` one row at a time (the serve path).
std::vector<SystemSnapshot> StepAll(SystemMonitor& monitor,
                                    const MeasurementFrame& frame) {
  std::vector<SystemSnapshot> snaps;
  std::vector<double> row(frame.MeasurementCount());
  for (std::size_t t = 0; t < frame.SampleCount(); ++t) {
    for (std::size_t a = 0; a < row.size(); ++a) {
      row[a] = frame.Value(MeasurementId(static_cast<std::int32_t>(a)), t);
    }
    snaps.push_back(monitor.Step(row, frame.TimeAt(t)));
  }
  return snaps;
}

TEST(MonitorIo, RestartOnCadenceMatchesTheNeverStoppedMonitor) {
  const MeasurementFrame history = SystemFrame(900, 21);
  SystemMonitor never_stopped(history, MeasurementGraph::FullMesh(4),
                              SmallConfig());
  StepAll(never_stopped, SystemFrame(30, 23));
  std::stringstream saved(Render(never_stopped));
  const auto restarted = LoadSystemMonitor(saved, 1);

  // The next row is on cadence: both score every pair from the same
  // previous cells, bit for bit.
  const MeasurementFrame next =
      SystemFrame(20, 25, 30 * kPaperSamplePeriod);
  const auto a = StepAll(never_stopped, next);
  const auto b = StepAll(*restarted, next);
  ASSERT_TRUE(a.front().system_score.has_value());
  for (std::size_t p = 0; p < a.front().pair_scores.size(); ++p) {
    EXPECT_TRUE(a.front().pair_scores[p].has_value()) << "pair " << p;
  }
  for (std::size_t t = 0; t < a.size(); ++t) {
    SCOPED_TRACE("sample " + std::to_string(t));
    ExpectSnapshotsEqual(a[t], b[t]);
  }
  EXPECT_EQ(Render(*restarted), Render(never_stopped));
}

TEST(MonitorIo, RestartAcrossAHoleDisengagesLikeTheNeverStoppedMonitor) {
  const MeasurementFrame history = SystemFrame(900, 31);
  SystemMonitor never_stopped(history, MeasurementGraph::FullMesh(4),
                              SmallConfig());
  StepAll(never_stopped, SystemFrame(30, 33));
  std::stringstream saved(Render(never_stopped));
  const auto restarted = LoadSystemMonitor(saved, 1);

  // The next row arrives two periods late: past late_factor (1.5) x
  // period. The restored guard still knows when the last row came, so
  // it breaks every sequence exactly as the never-stopped guard does.
  const MeasurementFrame late =
      SystemFrame(20, 35, 31 * kPaperSamplePeriod);
  const auto a = StepAll(never_stopped, late);
  const auto b = StepAll(*restarted, late);
  EXPECT_EQ(a.front().stream_event, StreamEvent::kGap);
  EXPECT_FALSE(a.front().system_score.has_value());
  for (std::size_t p = 0; p < a.front().pair_scores.size(); ++p) {
    EXPECT_FALSE(a.front().pair_scores[p].has_value()) << "pair " << p;
  }
  for (std::size_t t = 0; t < a.size(); ++t) {
    SCOPED_TRACE("sample " + std::to_string(t));
    ExpectSnapshotsEqual(a[t], b[t]);
  }
  EXPECT_EQ(Render(*restarted), Render(never_stopped));
}

TEST(MonitorIo, PathCheckpointCarriesFooterAndRotates) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "pmcorr_monitor_io_path";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "monitor.ckpt").string();

  const MeasurementFrame history = SystemFrame(900, 13);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  monitor.Run(SystemFrame(40, 15));

  SaveSystemMonitor(monitor, path);
  // The file is the stream rendering plus the 20-byte CRC footer the
  // loader verifies: u64 body length, u32 CRC-32 of the body, magic.
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string direct = Render(monitor);
  ASSERT_EQ(bytes.size(), direct.size() + 20);
  EXPECT_EQ(bytes.substr(0, direct.size()), direct);
  std::string footer;
  WireWriter w(footer);
  w.U64(direct.size());
  w.U32(Crc32(direct));
  w.Bytes("PMCRSEAL");
  EXPECT_EQ(bytes.substr(direct.size()), footer);

  CheckpointRecoveryInfo info;
  const auto loaded = LoadSystemMonitor(path, 2, &info);
  EXPECT_EQ(info.generation, 0u);
  EXPECT_TRUE(info.rejected.empty());
  EXPECT_EQ(Render(*loaded), direct);

  // A second save rotates the first into generation 1.
  monitor.Run(SystemFrame(10, 17));
  SaveSystemMonitor(monitor, path);
  EXPECT_TRUE(fs::exists(path + ".g1"));
  fs::remove_all(dir);
}

TEST(MonitorIo, RejectsGarbage) {
  std::stringstream bad("definitely not a checkpoint");
  EXPECT_THROW(LoadSystemMonitor(bad), std::runtime_error);
  // A checkpoint of the retired text format fails on its magic.
  std::stringstream text("pmcorr-monitor v1\nmeasurements 4\n");
  EXPECT_THROW(LoadSystemMonitor(text), std::runtime_error);
  std::stringstream truncated("pmcorr-monitor v2\n\x04");
  EXPECT_THROW(LoadSystemMonitor(truncated), std::runtime_error);
  EXPECT_THROW(LoadSystemMonitor("/nonexistent/checkpoint.txt"),
               std::runtime_error);
}

TEST(MonitorIo, ChecksPartConsistency) {
  // The parts constructor itself must validate model/pair counts.
  EXPECT_THROW(SystemMonitor(MonitorConfig{}, MeasurementGraph::FullMesh(3),
                             std::vector<MeasurementInfo>(3),
                             std::vector<PairModel>(1),  // wrong count
                             std::vector<ScoreAverager>(3), ScoreAverager{},
                             0),
               std::invalid_argument);
}

}  // namespace
}  // namespace pmcorr
