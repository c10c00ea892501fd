// Crash-safety proof for the rotated monitor checkpoints
// (io/monitor_io.h + io/atomic_file.h): a simulated crash at EVERY
// write point of a checkpoint save must leave the newest valid
// generation recoverable, and a monitor resumed from the recovered
// checkpoint must raise exactly the alarms a never-crashed oracle
// raises from the same state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint_records.h"
#include "common/rng.h"
#include "differential_util.h"
#include "io/atomic_file.h"
#include "io/monitor_io.h"

namespace pmcorr {
namespace {

MeasurementFrame SystemFrame(std::size_t samples, std::uint64_t seed) {
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
  MeasurementFrame frame(0, kPaperSamplePeriod);
  for (int c = 0; c < 4; ++c) {
    MeasurementInfo info;
    info.machine = MachineId(c / 2);
    info.name = "m" + std::to_string(c);
    frame.Add(info, TimeSeries(0, kPaperSamplePeriod, std::move(cols[c])));
  }
  return frame;
}

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.model.partition.units = 30;
  config.model.partition.max_intervals = 8;
  config.threads = 1;
  return config;
}

// Stream-format render (no footer): the state fingerprint two monitors
// are compared by.
std::string Render(const SystemMonitor& monitor) {
  return difftest::CheckpointString(monitor);
}

std::unique_ptr<SystemMonitor> FromString(const std::string& checkpoint) {
  std::istringstream in(checkpoint);
  return LoadSystemMonitor(in, 1);
}

// A fresh, empty working directory per test.
class CheckpointDir {
 public:
  explicit CheckpointDir(const std::string& name)
      : dir_(std::filesystem::path(testing::TempDir()) / name) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~CheckpointDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  std::string Path(const std::string& file) const {
    return (dir_ / file).string();
  }
  void Clear() {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

 private:
  std::filesystem::path dir_;
};

TEST(CheckpointRecovery, RotationKeepsConfiguredGenerations) {
  const MeasurementFrame history = SystemFrame(700, 3);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  CheckpointDir dir("pmcorr_ckpt_rotation");
  const std::string path = dir.Path("monitor.ckpt");
  CheckpointConfig config;
  config.generations = 3;

  std::vector<std::string> renders;
  for (int round = 0; round < 4; ++round) {
    monitor.Run(SystemFrame(5, 100 + static_cast<std::uint64_t>(round)));
    renders.push_back(Render(monitor));
    SaveSystemMonitor(monitor, path, config);
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".g1"));
  EXPECT_TRUE(std::filesystem::exists(path + ".g2"));
  EXPECT_FALSE(std::filesystem::exists(path + ".g3"));  // oldest dropped

  // Newest state at the primary path; each older generation one save
  // behind.
  CheckpointRecoveryInfo info;
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), renders[3]);
  EXPECT_EQ(info.generation, 0u);
  EXPECT_TRUE(info.rejected.empty());

  std::filesystem::remove(path);
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), renders[2]);
  EXPECT_EQ(info.generation, 1u);
  ASSERT_EQ(info.rejected.size(), 1u);
  EXPECT_NE(info.rejected[0].find("cannot open"), std::string::npos);

  std::filesystem::remove(path + ".g1");
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), renders[1]);
  EXPECT_EQ(info.generation, 2u);

  std::filesystem::remove(path + ".g2");
  EXPECT_THROW(LoadSystemMonitor(path, 1), std::runtime_error);
}

TEST(CheckpointRecovery, CorruptPrimaryFallsBackToOlderGeneration) {
  const MeasurementFrame history = SystemFrame(700, 5);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  CheckpointDir dir("pmcorr_ckpt_corrupt");
  const std::string path = dir.Path("monitor.ckpt");

  SaveSystemMonitor(monitor, path);
  const std::string old_render = Render(monitor);
  monitor.Run(SystemFrame(10, 7));
  SaveSystemMonitor(monitor, path);

  // Bit rot in the primary: the CRC footer catches it and the loader
  // falls back.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    f.put('#');
  }
  CheckpointRecoveryInfo info;
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), old_render);
  EXPECT_EQ(info.generation, 1u);
  ASSERT_EQ(info.rejected.size(), 1u);
  EXPECT_NE(info.rejected[0].find("CRC mismatch"), std::string::npos);

  // Truncation (a torn copy without its footer): rejected by the parse,
  // same fallback. Fresh directory so the corrupted file above is not
  // sitting in the fallback slot.
  dir.Clear();
  const std::string mid_render = Render(monitor);
  SaveSystemMonitor(monitor, path);
  monitor.Run(SystemFrame(10, 9));
  SaveSystemMonitor(monitor, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), mid_render);
  EXPECT_EQ(info.generation, 1u);
}

TEST(CheckpointRecovery, TrailerVerifierAcceptsStripsAndRejects) {
  const std::string content = "pmcorr-monitor v2\nnot really\n";
  const std::string sealed =
      content + ckpt::Footer(content.size(), Crc32(content));
  EXPECT_EQ(VerifyCheckpointTrailer(sealed), content);

  // Bytes without a footer pass through unchanged.
  EXPECT_EQ(VerifyCheckpointTrailer(content), content);
  EXPECT_EQ(VerifyCheckpointTrailer(""), "");
  // An empty body sealed is still a footer.
  EXPECT_EQ(VerifyCheckpointTrailer(ckpt::Footer(0, Crc32(""))), "");

  // Wrong CRC.
  EXPECT_THROW(VerifyCheckpointTrailer(
                   content + ckpt::Footer(content.size(),
                                          Crc32(content) ^ 1u)),
               std::runtime_error);
  // Bit rot in the body.
  std::string rotten = sealed;
  rotten[3] ^= 0x10;
  EXPECT_THROW(VerifyCheckpointTrailer(rotten), std::runtime_error);
}

TEST(CheckpointRecovery, FooterLengthDisagreeingWithTheBodyRejected) {
  const std::string content = "pmcorr-monitor v2\nnot really\n";
  // A footer from a longer body (the file lost bytes in the middle).
  try {
    (void)VerifyCheckpointTrailer(
        content + ckpt::Footer(content.size() + 17, Crc32(content)));
    ADD_FAILURE() << "accepted a footer that covers 17 missing bytes";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("length mismatch"),
              std::string::npos)
        << error.what();
  }
  // And from a shorter one.
  EXPECT_THROW(VerifyCheckpointTrailer(
                   content + ckpt::Footer(content.size() - 1,
                                          Crc32(content))),
               std::runtime_error);
}

TEST(CheckpointRecovery, DamagedFooterMagicLeavesBytesTheLoaderRejects) {
  // A footer whose magic lost a bit is no footer: the bytes pass
  // through whole, and the decode then fails on the 20 bytes trailing
  // the last pair record.
  const MeasurementFrame history = SystemFrame(300, 41);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  const std::string body = Render(monitor);
  std::string sealed = body + ckpt::Footer(body.size(), Crc32(body));
  sealed.back() ^= 0x01;
  EXPECT_EQ(VerifyCheckpointTrailer(sealed), sealed);
  EXPECT_THROW(FromString(sealed), std::runtime_error);
}

// The table-less bitwise CRC-32 the table-driven Crc32 replaced: one
// shift per input bit. It stays here as the oracle.
std::uint32_t BitwiseCrc32(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(0, 255));
  return bytes;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);  // the CRC-32 check value
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(std::string_view()), 0u);
  EXPECT_EQ(BitwiseCrc32("123456789"), 0xCBF43926u);
}

TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndAlignment) {
  // Lengths 0-300 cover the empty input, the byte tail alone (< 8) and
  // every tail length after whole eight-byte steps; offsets 0-7 start
  // the eight-byte loads at every alignment.
  const std::string bytes = RandomBytes(300 + 8, 77);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::string_view view(bytes.data() + offset, length);
      ASSERT_EQ(Crc32(view), BitwiseCrc32(view))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, MatchesBitwiseOracleOnMultiMiBBuffer) {
  const std::string bytes = RandomBytes((3u << 20) + 5, 78);
  EXPECT_EQ(Crc32(bytes), BitwiseCrc32(bytes));
  const std::string_view unaligned(bytes.data() + 3, bytes.size() - 3);
  EXPECT_EQ(Crc32(unaligned), BitwiseCrc32(unaligned));
}

// The tentpole proof: sweep a simulated crash across every write point
// of a checkpoint save. At each kill point, the loader must recover a
// state the process actually reached (the new checkpoint when the
// rename landed, the previous generation otherwise), and a run resumed
// from the recovered state must match the never-crashed oracle's
// snapshots and alarms exactly.
TEST(CheckpointRecovery, EveryKillPointRecoversAndResumesLikeTheOracle) {
  const MeasurementFrame history = SystemFrame(900, 11);
  const MeasurementFrame holdout = SystemFrame(500, 13);
  const MeasurementFrame part2 = SystemFrame(12, 17);
  const MeasurementFrame part3 = SystemFrame(25, 19);

  SystemMonitor before(history, MeasurementGraph::FullMesh(4),
                       SmallConfig());
  before.CalibrateThresholds(holdout, 0.05);
  before.Run(SystemFrame(12, 15));
  const std::string state_a = Render(before);

  // The state the crashed save is trying to persist.
  auto after = FromString(state_a);
  after->Run(part2);
  const std::string state_b = Render(*after);
  ASSERT_NE(state_a, state_b);

  // Oracles: resume part3 from each state without ever crashing.
  const auto oracle_a = FromString(state_a);
  const auto snaps_oracle_a = oracle_a->Run(part3);
  const auto oracle_b = FromString(state_b);
  const auto snaps_oracle_b = oracle_b->Run(part3);

  CheckpointDir dir("pmcorr_ckpt_killsweep");
  const std::string path = dir.Path("monitor.ckpt");

  // Enumerate the write points of one save.
  long long points = 0;
  {
    SaveSystemMonitor(before, path);
    ScopedWriteFault probe(-1);
    SaveSystemMonitor(*after, path);
    points = probe.Seen();
  }
  ASSERT_GE(points, 5);  // open, >=1 chunk, sync, rename, dirsync

  for (long long kill = 0; kill < points; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    dir.Clear();
    SaveSystemMonitor(before, path);  // gen0 = state A, intact on disk

    ScopedWriteFault crash(kill);
    bool threw = false;
    try {
      SaveSystemMonitor(*after, path);
    } catch (const std::exception&) {
      threw = true;
    }
    EXPECT_TRUE(crash.Fired());
    EXPECT_TRUE(threw);
    crash.Disarm();

    CheckpointRecoveryInfo info;
    std::unique_ptr<SystemMonitor> recovered;
    ASSERT_NO_THROW(recovered = LoadSystemMonitor(path, 1, &info));
    const std::string recovered_render = Render(*recovered);
    const bool got_new = recovered_render == state_b;
    if (!got_new) {
      // Crash before the rename landed: the rotated previous generation
      // must come back byte-identical, and the loader must report that
      // it actually fell back.
      EXPECT_EQ(recovered_render, state_a);
      EXPECT_EQ(info.generation, 1u);
      EXPECT_FALSE(info.rejected.empty());
    } else {
      EXPECT_EQ(info.generation, 0u);
    }

    // Resume and compare to the matching oracle: same snapshots, same
    // alarms, same final state.
    const auto snaps = recovered->Run(part3);
    const auto& oracle_snaps = got_new ? snaps_oracle_b : snaps_oracle_a;
    const SystemMonitor& oracle = got_new ? *oracle_b : *oracle_a;
    difftest::ExpectStreamsEqual(oracle_snaps, snaps);
    difftest::ExpectAlarmLogsEqual(oracle.Alarms(), recovered->Alarms());
    EXPECT_EQ(Render(*recovered), Render(oracle));
  }
}

// Sustained crash-and-recover cycling: a monitor that checkpoints on a
// cadence, crashes at a pseudo-random write point, recovers, and keeps
// monitoring — for at least 50 iterations (PMCORR_CRASH_LOOP_ITERS
// overrides). The invariant each cycle: recovery always succeeds and
// always yields either the state being saved or the last state known
// good on disk — never anything else, never a torn hybrid.
TEST(CheckpointRecovery, CrashLoopAlwaysRecoversALastGoodState) {
  int iterations = 60;
  if (const char* env = std::getenv("PMCORR_CRASH_LOOP_ITERS")) {
    iterations = std::max(1, std::atoi(env));
  }

  const MeasurementFrame history = SystemFrame(900, 21);
  CheckpointDir dir("pmcorr_ckpt_crashloop");
  const std::string path = dir.Path("monitor.ckpt");
  {
    SystemMonitor seed_monitor(history, MeasurementGraph::FullMesh(4),
                               SmallConfig());
    SaveSystemMonitor(seed_monitor, path);
  }
  auto monitor = LoadSystemMonitor(path, 1);
  std::string disk_good = Render(*monitor);

  Rng rng(2024);
  long long max_kill = 8;  // refined from observed write-point counts
  std::size_t recoveries = 0;
  for (int i = 0; i < iterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    monitor->Run(SystemFrame(4, 1000 + static_cast<std::uint64_t>(i)));
    const std::string next = Render(*monitor);

    const long long kill = rng.UniformInt(0, max_kill + 2);
    ScopedWriteFault crash(kill);
    try {
      SaveSystemMonitor(*monitor, path);
    } catch (const std::exception&) {
    }
    max_kill = std::max(max_kill, crash.Seen() - 1);
    crash.Disarm();

    CheckpointRecoveryInfo info;
    ASSERT_NO_THROW(monitor = LoadSystemMonitor(path, 1, &info));
    const std::string recovered = Render(*monitor);
    EXPECT_TRUE(recovered == next || recovered == disk_good)
        << "recovered a state that was never good on disk";
    if (info.generation > 0) ++recoveries;
    disk_good = recovered;
  }
  // The sweep must actually have exercised fallback recovery, not just
  // clean saves.
  EXPECT_GT(recoveries, 0u);
}

}  // namespace
}  // namespace pmcorr
