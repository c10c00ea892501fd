// Chaos harness for the serve subsystem's crash story, choreographed
// deterministically through manual-pump tenants: kill points swept
// across cadence checkpoints (every crash recovers a state the tenant
// actually reached, and the resumed run is bitwise-identical to a
// never-crashed oracle), torn final writes falling back a generation,
// poisoned tenants leaving their last-good checkpoint untouched, and
// the graceful-shutdown contract — drain checkpoints every tenant and
// a restart resumes exactly where the drained daemon stopped.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "differential_util.h"
#include "io/atomic_file.h"
#include "io/monitor_io.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace pmcorr {
namespace {

using difftest::CheckpointString;

MeasurementFrame CorrelatedFrame(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(samples));
  for (std::size_t i = 0; i < samples; ++i) {
    const double load = 60.0 +
                        35.0 * std::sin(static_cast<double>(i) * 0.03) +
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

std::unique_ptr<SystemMonitor> MakeMonitor(std::uint64_t seed = 11) {
  const MeasurementFrame history = CorrelatedFrame(300, seed);
  return std::make_unique<SystemMonitor>(
      history, MeasurementGraph::FullMesh(history.MeasurementCount()),
      SmallConfig());
}

std::vector<SampleRow> Rows(const MeasurementFrame& frame) {
  std::vector<SampleRow> rows;
  rows.reserve(frame.SampleCount());
  for (std::size_t t = 0; t < frame.SampleCount(); ++t) {
    SampleRow row;
    row.time = frame.TimeAt(t);
    for (std::size_t a = 0; a < frame.MeasurementCount(); ++a) {
      row.values.push_back(
          frame.Value(MeasurementId(static_cast<std::int32_t>(a)), t));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::unique_ptr<SystemMonitor> FromString(const std::string& checkpoint) {
  std::istringstream in(checkpoint);
  return LoadSystemMonitor(in, 1);
}

class ChaosDir {
 public:
  explicit ChaosDir(const std::string& name)
      : dir_(std::filesystem::path(testing::TempDir()) / name) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ChaosDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  std::string Path(const std::string& file) const {
    return (dir_ / file).string();
  }

 private:
  std::filesystem::path dir_;
};

TenantConfig ManualTenant(const std::string& name,
                          const std::string& checkpoint_path = "",
                          std::size_t checkpoint_every = 0) {
  TenantConfig config;
  config.name = name;
  config.queue_budget = 512;
  config.threaded = false;
  config.checkpoint_path = checkpoint_path;
  config.checkpoint_every = checkpoint_every;
  return config;
}

// ---------------------------------------------------------------------
// Kill-point sweep: crash during any cadence checkpoint, recover, and
// the resumed run matches a never-crashed oracle bitwise.
// ---------------------------------------------------------------------

TEST(ServeChaos, EveryCheckpointKillPointRecoversToLastGood) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(60, 101));
  constexpr std::size_t kCadence = 20;

  // Reference pass, no faults: record the tenant's render at each
  // checkpoint boundary — the only states a recovery may land on.
  ChaosDir ref_dir("pmcorr_serve_chaos_ref");
  std::vector<std::string> good_renders;  // render after 20, 40, 60 rows
  {
    TenantRuntime tenant(
        ManualTenant("A", ref_dir.Path("a.ckpt"), kCadence), MakeMonitor());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      tenant.Submit(rows[i]);
      tenant.Pump(1);
      if ((i + 1) % kCadence == 0) {
        good_renders.push_back(CheckpointString(tenant.Monitor()));
      }
    }
    ASSERT_EQ(tenant.Status().counters.checkpoints, 3u);
  }
  ASSERT_EQ(good_renders.size(), 3u);

  // Count the write points of the second checkpoint (the one we crash).
  long long write_points = 0;
  {
    ChaosDir dir("pmcorr_serve_chaos_probe");
    TenantRuntime tenant(ManualTenant("A", dir.Path("a.ckpt"), kCadence),
                         MakeMonitor());
    for (std::size_t i = 0; i < kCadence; ++i) {
      tenant.Submit(rows[i]);
      tenant.Pump(1);
    }
    ScopedWriteFault probe(-1);  // count only
    for (std::size_t i = kCadence; i < 2 * kCadence; ++i) {
      tenant.Submit(rows[i]);
      tenant.Pump(1);
    }
    write_points = probe.Seen();
    ASSERT_GT(write_points, 0);
  }

  for (long long kill = 0; kill < write_points; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    ChaosDir dir("pmcorr_serve_chaos_kill");
    const std::string path = dir.Path("a.ckpt");
    {
      TenantRuntime tenant(ManualTenant("A", path, kCadence),
                           MakeMonitor());
      for (std::size_t i = 0; i < kCadence; ++i) {
        tenant.Submit(rows[i]);
        tenant.Pump(1);
      }
      ASSERT_EQ(tenant.Status().counters.checkpoints, 1u);
      // Crash mid-save of checkpoint 2: the tenant must absorb the
      // failure (counted, not fatal) and keep serving.
      {
        ScopedWriteFault crash(kill);
        for (std::size_t i = kCadence; i < 2 * kCadence; ++i) {
          tenant.Submit(rows[i]);
          tenant.Pump(1);
        }
      }
      const TenantStatus status = tenant.Status();
      EXPECT_EQ(status.counters.processed, 2 * kCadence);
      EXPECT_EQ(status.counters.checkpoints +
                    status.counters.checkpoint_failures,
                2u);
      // The process "dies" here: destructor, no drain, no final save.
    }

    // Recovery must land on a state the tenant actually reached —
    // checkpoint 2 if its save got far enough, else checkpoint 1.
    CheckpointRecoveryInfo info;
    auto recovered = LoadSystemMonitor(path, 1, &info);
    const std::string render = CheckpointString(*recovered);
    ASSERT_TRUE(render == good_renders[0] || render == good_renders[1])
        << "recovered a state the tenant never reached";

    // Resume: a tenant rebuilt from the recovered monitor, fed the rest
    // of the stream, must equal the never-crashed oracle resumed from
    // the same state — bitwise, through the serve path.
    const std::size_t resume_from =
        render == good_renders[1] ? 2 * kCadence : kCadence;
    TenantRuntime resumed(ManualTenant("A"), std::move(recovered));
    auto oracle = FromString(render == good_renders[1] ? good_renders[1]
                                                       : good_renders[0]);
    for (std::size_t i = resume_from; i < rows.size(); ++i) {
      resumed.Submit(rows[i]);
      resumed.Pump(1);
      oracle->Step(rows[i].values, rows[i].time);
    }
    EXPECT_EQ(CheckpointString(resumed.Monitor()), CheckpointString(*oracle));
  }
}

// ---------------------------------------------------------------------
// Torn final write: the drain seal fails, the previous generation must
// still be loadable and the failure visible in the drain report.
// ---------------------------------------------------------------------

TEST(ServeChaos, TornDrainSealFallsBackOneGeneration) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(45, 111));
  constexpr std::size_t kSealed = 40;  // rows covered by the cadence
  ChaosDir dir("pmcorr_serve_chaos_torn");
  const std::string path = dir.Path("a.ckpt");

  ServeCore core;
  core.AddTenant(ManualTenant("A", path, 20), MakeMonitor());
  TenantRuntime& tenant = core.Tenant(0);
  auto at_last_cadence = MakeMonitor();
  for (std::size_t i = 0; i < kSealed; ++i) {
    tenant.Submit(rows[i]);
    tenant.Pump(1);
    at_last_cadence->Step(rows[i].values, rows[i].time);
  }
  ASSERT_EQ(tenant.Status().counters.checkpoints, 2u);
  // Rows past the last cadence checkpoint leave the drain something to
  // seal (a state already on disk is not re-sealed).
  for (std::size_t i = kSealed; i < rows.size(); ++i) tenant.Submit(rows[i]);

  DrainedReply drained;
  {
    ScopedWriteFault torn(0);  // dies on the seal's very first write
    drained = core.Drain();
  }
  // The drain still completes — every queued row processed — but the
  // report is honest about the failed seal.
  ASSERT_EQ(drained.tenants.size(), 1u);
  EXPECT_EQ(drained.tenants[0].state,
            static_cast<std::uint8_t>(TenantState::kDrained));
  EXPECT_EQ(drained.tenants[0].processed, rows.size());
  EXPECT_EQ(drained.tenants[0].checkpoint, 2);  // failed
  EXPECT_EQ(tenant.Status().counters.checkpoint_failures, 1u);

  // The seal rotated the primary into .g1 before the write died, so the
  // primary slot is empty — but nothing torn is loadable, and recovery
  // probes straight through to the last cadence checkpoint (40 rows)
  // one generation back.
  EXPECT_FALSE(std::filesystem::exists(path));
  CheckpointRecoveryInfo info;
  auto recovered = LoadSystemMonitor(path, 1, &info);
  EXPECT_EQ(CheckpointString(*recovered), CheckpointString(*at_last_cadence));
  EXPECT_EQ(info.generation, 1u);
}

// ---------------------------------------------------------------------
// Poison + checkpoint interplay: a poisoned tenant's last-good
// checkpoint survives, and its healthy neighbor drains normally.
// ---------------------------------------------------------------------

TEST(ServeChaos, PoisonedTenantKeepsLastGoodCheckpointAndNeighborDrains) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(50, 121));
  ChaosDir dir("pmcorr_serve_chaos_poison");

  ServeCore core;
  TenantConfig poisoned = ManualTenant("A", dir.Path("a.ckpt"), 20);
  poisoned.chaos_hook = [](std::uint64_t row) {
    if (row == 30) throw std::runtime_error("poison pill");
  };
  core.AddTenant(poisoned, MakeMonitor(122));
  core.AddTenant(ManualTenant("B", dir.Path("b.ckpt"), 20),
                 MakeMonitor(123));
  auto solo = MakeMonitor(123);

  std::string last_good;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    core.Tenant(0).Submit(rows[i]);
    core.Tenant(0).Pump(1);
    core.Tenant(1).Submit(rows[i]);
    core.Tenant(1).Pump(1);
    solo->Step(rows[i].values, rows[i].time);
    if (i + 1 == 20) last_good = CheckpointString(core.Tenant(0).Monitor());
  }
  ASSERT_EQ(core.Tenant(0).State(), TenantState::kPoisoned);

  const DrainedReply drained = core.Drain();
  EXPECT_EQ(drained.tenants[0].state,
            static_cast<std::uint8_t>(TenantState::kPoisoned));
  EXPECT_EQ(drained.tenants[0].checkpoint, 2);  // no good final seal
  EXPECT_EQ(drained.tenants[1].state,
            static_cast<std::uint8_t>(TenantState::kDrained));
  EXPECT_EQ(drained.tenants[1].checkpoint, 1);

  // A's checkpoint is exactly the last cadence save before the poison —
  // the drain did not touch it.
  EXPECT_EQ(CheckpointString(*LoadSystemMonitor(dir.Path("a.ckpt"), 1)),
            last_good);
  // B's seal equals the solo run: the neighbor's death cost B nothing.
  EXPECT_EQ(CheckpointString(*LoadSystemMonitor(dir.Path("b.ckpt"), 1)),
            CheckpointString(*solo));
}

// ---------------------------------------------------------------------
// Graceful shutdown with real worker threads: drain checkpoints every
// tenant, and a restarted daemon resumes bitwise where it stopped.
// ---------------------------------------------------------------------

TEST(ServeChaos, DrainCheckpointsEveryTenantAndRestartResumes) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(80, 131));
  ChaosDir dir("pmcorr_serve_chaos_drain");

  std::vector<std::string> sealed_renders(2);
  {
    ServeCore core;
    for (int t = 0; t < 2; ++t) {
      TenantConfig config;  // threaded: the real daemon lifecycle
      config.name = t == 0 ? "A" : "B";
      config.queue_budget = 256;
      config.checkpoint_path =
          dir.Path(std::string(t == 0 ? "a" : "b") + ".ckpt");
      core.AddTenant(config,
                     MakeMonitor(132 + static_cast<std::uint64_t>(t)));
    }
    // First half of the stream to both tenants, then SIGTERM-style
    // drain: queues finish, every tenant seals a final checkpoint.
    for (std::size_t i = 0; i < rows.size() / 2; ++i) {
      ASSERT_TRUE(core.Tenant(0).Submit(rows[i]).accepted);
      ASSERT_TRUE(core.Tenant(1).Submit(rows[i]).accepted);
    }
    const DrainedReply drained = core.Drain();
    for (int t = 0; t < 2; ++t) {
      EXPECT_EQ(drained.tenants[static_cast<std::size_t>(t)].processed,
                rows.size() / 2);
      EXPECT_EQ(drained.tenants[static_cast<std::size_t>(t)].checkpoint, 1);
      // Every accepted row reached the engine before the seal.
      sealed_renders[static_cast<std::size_t>(t)] =
          CheckpointString(core.Tenant(static_cast<std::size_t>(t)).Monitor());
    }
  }

  // "Restart": load each tenant from its sealed checkpoint. The file
  // must hold the exact drained state.
  for (int t = 0; t < 2; ++t) {
    const std::string path =
        dir.Path(std::string(t == 0 ? "a" : "b") + ".ckpt");
    auto restored = LoadSystemMonitor(path, 1);
    ASSERT_EQ(CheckpointString(*restored),
              sealed_renders[static_cast<std::size_t>(t)])
        << "seal of tenant " << t << " lost state";

    // Resume the second half through a fresh tenant; the never-stopped
    // oracle is the same sealed state fed the same rows directly.
    TenantRuntime resumed(ManualTenant("R"), std::move(restored));
    auto oracle = FromString(sealed_renders[static_cast<std::size_t>(t)]);
    for (std::size_t i = rows.size() / 2; i < rows.size(); ++i) {
      ASSERT_TRUE(resumed.Submit(rows[i]).accepted);
      resumed.Pump(1);
      oracle->Step(rows[i].values, rows[i].time);
    }
    EXPECT_EQ(CheckpointString(resumed.Monitor()), CheckpointString(*oracle));
  }
}

// ---------------------------------------------------------------------
// Abrupt destruction (the crash path) drops queued rows without
// touching disk: recovery sees the last cadence checkpoint only.
// ---------------------------------------------------------------------

TEST(ServeChaos, DestructionWithoutDrainWritesNothing) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(30, 141));
  ChaosDir dir("pmcorr_serve_chaos_crash");
  const std::string path = dir.Path("a.ckpt");

  std::string cadence_render;
  {
    TenantRuntime tenant(ManualTenant("A", path, 10), MakeMonitor());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      tenant.Submit(rows[i]);
      if (i < 25) tenant.Pump(1);  // 5 rows left in the queue at "crash"
      if (i + 1 == 20) cadence_render = CheckpointString(tenant.Monitor());
    }
    EXPECT_EQ(tenant.Status().queue_rows, 5u);
    // Destructor: the crash. No drain, no seal.
  }
  EXPECT_EQ(CheckpointString(*LoadSystemMonitor(path, 1)), cadence_render);
  EXPECT_FALSE(std::filesystem::exists(path + ".g2"));
}

}  // namespace
}  // namespace pmcorr
