// The serve subsystem's functional contracts, driven deterministically
// through manual-pump tenants (threaded = false) and the transport-free
// ServeSession: bounded queues and whole-tick shedding, the
// alarms-never-increase-under-shedding guarantee, watermark
// backpressure accounting, bitwise multi-tenant isolation, drain seals
// that write only state not yet on disk, the full query protocol, and
// the MonitorConfig::retrain knob (detached
// RetrainPool adoption, bitwise-off when disabled).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "differential_util.h"
#include "engine/retrain_pool.h"
#include "io/framing.h"
#include "io/model_io.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace pmcorr {
namespace {

using difftest::CheckpointString;

// Correlated 2-machine system; optionally decouple m3 halfway so the
// alarm path fires.
MeasurementFrame CorrelatedFrame(std::size_t samples, std::uint64_t seed,
                                 bool break_m3_correlation_late = false) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(samples));
  Rng walk_rng = rng.Fork();
  double walk = 50.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double load = 60.0 +
                        35.0 * std::sin(static_cast<double>(i) * 0.03) +
                        rng.Normal(0.0, 1.5);
    cols[0][i] = load + rng.Normal(0.0, 0.8);
    cols[1][i] = 100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.4);
    cols[2][i] = 2.5 * load + 20.0 + rng.Normal(0.0, 2.0);
    if (break_m3_correlation_late && i >= samples / 2) {
      walk += walk_rng.Normal(0.0, 25.0);
      walk = std::min(std::max(walk, 20.0), 150.0);
      cols[3][i] = walk;
    } else {
      cols[3][i] = 0.8 * load + 35.0 + rng.Normal(0.0, 1.5);
    }
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

std::unique_ptr<SystemMonitor> MakeMonitor(
    std::uint64_t seed = 11, MonitorConfig config = SmallConfig()) {
  const MeasurementFrame history = CorrelatedFrame(300, seed);
  return std::make_unique<SystemMonitor>(
      history, MeasurementGraph::FullMesh(history.MeasurementCount()),
      config);
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

TenantConfig ManualTenant(const std::string& name,
                          std::size_t queue_budget = 8) {
  TenantConfig config;
  config.name = name;
  config.queue_budget = queue_budget;
  config.threaded = false;
  return config;
}

// ---------------------------------------------------------------------
// Queue discipline.
// ---------------------------------------------------------------------

TEST(TenantRuntime, ShedsWholeTicksAtFullQueue) {
  TenantRuntime tenant(ManualTenant("A", 4), MakeMonitor());
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(12, 21));
  std::size_t accepted = 0, shed = 0;
  for (const SampleRow& row : rows) {
    const AdmitResult result = tenant.Submit(row);
    accepted += result.accepted ? 1 : 0;
    shed += result.shed ? 1 : 0;
    EXPECT_LE(result.queue_rows, 4u);  // never exceeds the budget
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(shed, 8u);
  const TenantStatus status = tenant.Status();
  EXPECT_EQ(status.counters.submitted, 12u);
  EXPECT_EQ(status.counters.accepted, 4u);
  EXPECT_EQ(status.counters.shed_ticks, 8u);
  EXPECT_EQ(status.counters.max_queue_rows, 4u);

  // The accepted prefix processes cleanly; the shed suffix is simply
  // absent — no partial rows, no corruption.
  EXPECT_EQ(tenant.Pump(100), 4u);
  EXPECT_EQ(tenant.Status().counters.processed, 4u);
  EXPECT_TRUE(tenant.Published()->has_snapshot);
  EXPECT_EQ(tenant.Published()->processed, 4u);
}

TEST(TenantRuntime, RejectsWrongWidthAndInactiveStates) {
  TenantRuntime tenant(ManualTenant("A"), MakeMonitor());
  SampleRow narrow;
  narrow.time = 0;
  narrow.values = {1.0, 2.0};
  EXPECT_TRUE(tenant.Submit(narrow).rejected);

  tenant.Drain();
  EXPECT_EQ(tenant.State(), TenantState::kDrained);
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(1, 22));
  EXPECT_TRUE(tenant.Submit(rows[0]).rejected);
  EXPECT_EQ(tenant.Status().counters.rejected, 2u);
}

TEST(TenantRuntime, BackpressureRaisesAndClearsAtWatermarks) {
  TenantConfig config = ManualTenant("A", 8);
  config.backpressure_high = 6;
  config.backpressure_low = 2;
  TenantRuntime tenant(config, MakeMonitor());
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(12, 23));

  for (std::size_t i = 0; i < 5; ++i) tenant.Submit(rows[i]);
  EXPECT_FALSE(tenant.BackpressureEngaged());
  tenant.Submit(rows[5]);  // hits the high watermark
  EXPECT_TRUE(tenant.BackpressureEngaged());
  tenant.Pump(3);  // 6 -> 3: still above the low watermark
  EXPECT_TRUE(tenant.BackpressureEngaged());
  tenant.Pump(1);  // 3 -> 2: clears
  EXPECT_FALSE(tenant.BackpressureEngaged());
  const TenantStatus status = tenant.Status();
  EXPECT_EQ(status.counters.backpressure_raises, 1u);
  EXPECT_EQ(status.counters.backpressure_clears, 1u);
}

// ---------------------------------------------------------------------
// Degradation semantics: shedding only removes evidence.
// ---------------------------------------------------------------------

TEST(TenantRuntime, AlarmsNeverIncreaseUnderShedding) {
  // Calibrated monitors over a stream whose second half decorrelates:
  // the unloaded run sees every row; the overloaded run sheds most of
  // them. Shedding must never create alarms that the full run lacks.
  const MeasurementFrame history = CorrelatedFrame(400, 31);
  const MeasurementFrame holdout = CorrelatedFrame(200, 32);
  const MeasurementFrame test = CorrelatedFrame(240, 33, true);
  const auto graph = MeasurementGraph::FullMesh(history.MeasurementCount());

  auto build = [&] {
    auto monitor =
        std::make_unique<SystemMonitor>(history, graph, SmallConfig());
    monitor->CalibrateThresholds(holdout, 0.05);
    return monitor;
  };
  const std::vector<SampleRow> rows = Rows(test);

  TenantRuntime unloaded(ManualTenant("full", 4), build());
  for (const SampleRow& row : rows) {
    unloaded.Submit(row);
    unloaded.Pump(1);  // keeps the queue empty: nothing sheds
  }
  ASSERT_EQ(unloaded.Status().counters.shed_ticks, 0u);

  TenantRuntime overloaded(ManualTenant("shed", 4), build());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    overloaded.Submit(rows[i]);
    if (i % 5 == 0) overloaded.Pump(1);  // 5x oversubscribed
  }
  overloaded.Drain();
  EXPECT_GT(overloaded.Status().counters.shed_ticks, 0u);

  EXPECT_LE(overloaded.Published()->alarms_total,
            unloaded.Published()->alarms_total);
  // The full run on this decorrelated stream does alarm — the bound is
  // not vacuous.
  EXPECT_GT(unloaded.Published()->alarms_total, 0u);
}

// ---------------------------------------------------------------------
// Isolation.
// ---------------------------------------------------------------------

TEST(TenantRuntime, OverloadedNeighborLeavesTenantBitwiseUntouched) {
  // Tenant A drowns; tenant B receives a clean feed. B's engine must
  // end bitwise identical to a solo monitor that never shared a daemon.
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(120, 41));

  TenantRuntime a(ManualTenant("A", 2), MakeMonitor(42));
  TenantRuntime b(ManualTenant("B", 256), MakeMonitor(43));
  auto solo = MakeMonitor(43);

  for (const SampleRow& row : rows) {
    a.Submit(row);  // mostly sheds: the queue is 2 deep and rarely pumped
    b.Submit(row);
    b.Pump(1);
    solo->Step(row.values, row.time);
  }
  a.Pump(1);
  EXPECT_GT(a.Status().counters.shed_ticks, 0u);
  EXPECT_EQ(CheckpointString(b.Monitor()), CheckpointString(*solo));
}

TEST(TenantRuntime, PoisonedTenantIsFencedOff) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(60, 51));

  TenantConfig poisoned_config = ManualTenant("A");
  poisoned_config.chaos_hook = [](std::uint64_t row) {
    if (row == 20) throw std::runtime_error("engine blew up");
  };
  TenantRuntime a(poisoned_config, MakeMonitor(52));
  TenantRuntime b(ManualTenant("B", 256), MakeMonitor(53));
  auto solo = MakeMonitor(53);

  for (const SampleRow& row : rows) {
    a.Submit(row);
    a.Pump(1);
    b.Submit(row);
    b.Pump(1);
    solo->Step(row.values, row.time);
  }
  EXPECT_EQ(a.State(), TenantState::kPoisoned);
  EXPECT_EQ(a.Status().counters.processed, 20u);
  EXPECT_EQ(a.Status().last_error, "engine blew up");
  EXPECT_EQ(a.Status().queue_rows, 0u);  // queue dropped, memory released
  // Poisoned tenants refuse new rows instead of silently eating them.
  EXPECT_TRUE(a.Submit(rows[0]).rejected);
  // Drain() must not touch a poisoned tenant (its last-good checkpoint,
  // had one been configured, stays as the crash left it).
  a.Drain();
  EXPECT_EQ(a.State(), TenantState::kPoisoned);

  // The neighbor never noticed.
  EXPECT_EQ(CheckpointString(b.Monitor()), CheckpointString(*solo));
}

// ---------------------------------------------------------------------
// Drain seals.
// ---------------------------------------------------------------------

// A fresh, empty checkpoint directory per test.
class SealDir {
 public:
  explicit SealDir(const std::string& name)
      : dir_(std::filesystem::path(testing::TempDir()) / name) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~SealDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  std::string Path(const std::string& file) const {
    return (dir_ / file).string();
  }

 private:
  std::filesystem::path dir_;
};

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TenantConfig CheckpointedTenant(const std::string& path) {
  TenantConfig config = ManualTenant("A", 64);
  config.checkpoint_path = path;
  config.checkpoint_every = 20;
  return config;
}

// Leaves a primary checkpoint and a .g1 at `path`: a cadence seal after
// row 20, then the drain seal after row 30.
void WriteTwoGenerations(const std::string& path) {
  TenantRuntime tenant(CheckpointedTenant(path), MakeMonitor(72));
  for (const SampleRow& row : Rows(CorrelatedFrame(30, 71))) {
    tenant.Submit(row);
  }
  tenant.Drain();
  ASSERT_EQ(tenant.Status().counters.checkpoints, 2u);
}

TEST(TenantRuntime, DrainOfUnchangedRestoredTenantWritesNothing) {
  SealDir dir("pmcorr_serve_restored_drain");
  const std::string path = dir.Path("A.ckpt");
  WriteTwoGenerations(path);
  const std::string primary = FileBytes(path);
  const std::string g1 = FileBytes(path + ".g1");
  ASSERT_FALSE(primary.empty());
  ASSERT_FALSE(g1.empty());

  CheckpointRecoveryInfo recovery;
  std::unique_ptr<SystemMonitor> monitor =
      LoadSystemMonitor(path, 1, &recovery);
  ASSERT_EQ(recovery.generation, 0u);
  ServeCore core;
  core.AddTenant(CheckpointedTenant(path), std::move(monitor),
                 /*state_on_disk=*/true);
  const DrainedReply reply = core.Drain();
  ASSERT_EQ(reply.tenants.size(), 1u);
  EXPECT_EQ(reply.tenants[0].checkpoint, 1);  // sealed: "ok"

  const TenantStatus status = core.Tenant(0).Status();
  EXPECT_EQ(status.state, TenantState::kDrained);
  EXPECT_EQ(status.counters.checkpoints, 0u);
  EXPECT_TRUE(status.state_on_disk);
  EXPECT_EQ(FileBytes(path), primary);
  EXPECT_EQ(FileBytes(path + ".g1"), g1);
}

TEST(TenantRuntime, DrainSealsOnlyStateNotYetOnDisk) {
  SealDir dir("pmcorr_serve_drain_seal");
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(20, 73));

  // The cadence checkpoint after row 20 is the last state: the drain
  // writes nothing more.
  const std::string cadence_path = dir.Path("cadence.ckpt");
  {
    TenantRuntime tenant(CheckpointedTenant(cadence_path), MakeMonitor(74));
    for (const SampleRow& row : rows) tenant.Submit(row);
    ASSERT_EQ(tenant.Pump(rows.size()), rows.size());
    ASSERT_EQ(tenant.Status().counters.checkpoints, 1u);
    const std::string sealed = FileBytes(cadence_path);
    tenant.Drain();
    EXPECT_EQ(tenant.Status().counters.checkpoints, 1u);
    EXPECT_TRUE(tenant.Status().state_on_disk);
    EXPECT_EQ(FileBytes(cadence_path), sealed);
    EXPECT_FALSE(std::filesystem::exists(cadence_path + ".g1"));
  }

  // A cold-trained tenant has nothing on disk: an immediate drain seals.
  const std::string cold_path = dir.Path("cold.ckpt");
  {
    TenantRuntime tenant(CheckpointedTenant(cold_path), MakeMonitor(75));
    tenant.Drain();
    EXPECT_EQ(tenant.Status().counters.checkpoints, 1u);
    EXPECT_TRUE(std::filesystem::exists(cold_path));
  }

  // A tenant restored from an older generation is not what the primary
  // holds: its drain seals and rotates.
  const std::string old_path = dir.Path("old.ckpt");
  WriteTwoGenerations(old_path);
  const std::string primary = FileBytes(old_path);
  {
    TenantRuntime tenant(CheckpointedTenant(old_path),
                         LoadSystemMonitor(old_path + ".g1", 1),
                         /*state_on_disk=*/false);
    tenant.Drain();
    EXPECT_EQ(tenant.Status().counters.checkpoints, 1u);
    EXPECT_EQ(FileBytes(old_path + ".g1"), primary);
  }

  // One processed row after a restore leaves the disk behind.
  {
    TenantRuntime tenant(CheckpointedTenant(old_path),
                         LoadSystemMonitor(old_path, 1),
                         /*state_on_disk=*/true);
    tenant.Submit(rows[0]);
    tenant.Drain();
    EXPECT_EQ(tenant.Status().counters.checkpoints, 1u);
    EXPECT_TRUE(tenant.Status().state_on_disk);
  }
}

// ---------------------------------------------------------------------
// The protocol state machine over real tenants.
// ---------------------------------------------------------------------

struct SessionHarness {
  SessionHarness() {
    core.AddTenant(ManualTenant("A", 64), MakeMonitor(61));
    core.AddTenant(ManualTenant("B", 64), MakeMonitor(62));
  }

  /// Runs one frame through a session and returns the decoded replies.
  std::vector<Frame> Exchange(ServeSession& session, std::uint8_t type,
                              std::string_view payload, bool expect_alive) {
    std::string out;
    Frame frame;
    frame.type = type;
    frame.payload = std::string(payload);
    EXPECT_EQ(session.HandleFrame(frame, out), expect_alive);
    std::vector<Frame> replies;
    FrameReader reader;
    reader.Feed(out);
    while (const auto reply = reader.Next()) replies.push_back(*reply);
    return replies;
  }

  void Hello(ServeSession& session, const std::string& tenant) {
    HelloRequest hello;
    hello.tenant = tenant;
    std::string payload;
    EncodeHelloRequest(hello, payload);
    const auto replies = Exchange(session, kFrameHello, payload, true);
    ASSERT_EQ(replies.size(), 1u);
    ASSERT_EQ(replies[0].type, kFrameHelloOk);
  }

  ServeCore core;
};

TEST(ServeSession, HelloBindsAndAnswersQueries) {
  SessionHarness harness;
  ServeSession session(harness.core);
  EXPECT_EQ(session.TenantIndex(), -1);
  harness.Hello(session, "B");
  EXPECT_EQ(session.TenantIndex(), 1);

  // Stream a few rows, pump them, then query all three surfaces.
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(10, 63));
  for (const SampleRow& row : rows) {
    std::string payload;
    EncodeSampleRow(row, payload);
    const auto replies = harness.Exchange(session, kFrameSample, payload, true);
    EXPECT_TRUE(replies.empty());  // ingest is one-way
  }
  harness.core.Tenant(1).Pump(100);

  QueryRequest query;
  std::string payload;
  query.kind = QueryKind::kStatus;
  EncodeQueryRequest(query, payload);
  auto replies = harness.Exchange(session, kFrameQuery, payload, true);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type, kFrameStatus);
  const StatusReply status = DecodeStatusReply(replies[0].payload);
  EXPECT_EQ(status.accepted, 10u);
  EXPECT_EQ(status.processed, 10u);
  EXPECT_EQ(status.last_sample, 9u);

  query.kind = QueryKind::kSummary;
  payload.clear();
  EncodeQueryRequest(query, payload);
  replies = harness.Exchange(session, kFrameQuery, payload, true);
  ASSERT_EQ(replies.size(), 1u);
  const SummaryReply summary = DecodeSummaryReply(replies[0].payload);
  ASSERT_TRUE(summary.has_snapshot);
  EXPECT_EQ(summary.sample, 9u);
  EXPECT_EQ(summary.measurement_scores.size(), 4u);

  // Drill-down must mirror the graph topology and the published scores.
  query.kind = QueryKind::kDrilldown;
  query.arg = 2;
  payload.clear();
  EncodeQueryRequest(query, payload);
  replies = harness.Exchange(session, kFrameQuery, payload, true);
  ASSERT_EQ(replies.size(), 1u);
  const DrilldownReply drill = DecodeDrilldownReply(replies[0].payload);
  EXPECT_EQ(drill.measurement, 2u);
  ASSERT_TRUE(drill.has_snapshot);
  const auto& graph = harness.core.Tenant(1).Monitor().Graph();
  EXPECT_EQ(drill.pairs.size(), graph.PairsOf(MeasurementId(2)).size());
  const auto published = harness.core.Tenant(1).Published();
  for (const DrilldownPair& pair : drill.pairs) {
    EXPECT_TRUE(pair.a == 2u || pair.b == 2u);
    const auto& score = published->snapshot.pair_scores[pair.pair_index];
    ASSERT_EQ(pair.has_score, score.has_value());
    if (score) EXPECT_EQ(pair.score, *score);
  }
}

TEST(ServeSession, ProtocolViolationsCloseWithError) {
  SessionHarness harness;

  {  // sample before hello
    ServeSession session(harness.core);
    std::string payload;
    EncodeSampleRow(Rows(CorrelatedFrame(1, 64))[0], payload);
    const auto replies =
        harness.Exchange(session, kFrameSample, payload, false);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, kFrameError);
  }
  {  // unknown tenant
    ServeSession session(harness.core);
    HelloRequest hello;
    hello.tenant = "nope";
    std::string payload;
    EncodeHelloRequest(hello, payload);
    const auto replies =
        harness.Exchange(session, kFrameHello, payload, false);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, kFrameError);
  }
  {  // wrong protocol version
    ServeSession session(harness.core);
    std::string hello;
    WireWriter writer(hello);
    writer.U8(kServeProtocolVersion + 1);
    writer.Str("A");
    const auto replies =
        harness.Exchange(session, kFrameHello, hello, false);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, kFrameError);
  }
  {  // wrong-width row: rejected loudly, not mistaken for shedding
    ServeSession session(harness.core);
    harness.Hello(session, "A");
    SampleRow narrow;
    narrow.time = 0;
    narrow.values = {1.0};
    std::string payload;
    EncodeSampleRow(narrow, payload);
    const auto replies =
        harness.Exchange(session, kFrameSample, payload, false);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, kFrameError);
  }
  {  // drill-down out of range
    ServeSession session(harness.core);
    harness.Hello(session, "A");
    QueryRequest query;
    query.kind = QueryKind::kDrilldown;
    query.arg = 99;
    std::string payload;
    EncodeQueryRequest(query, payload);
    const auto replies =
        harness.Exchange(session, kFrameQuery, payload, false);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, kFrameError);
  }
  {  // unknown frame type
    ServeSession session(harness.core);
    const auto replies = harness.Exchange(session, 0x7F, "", false);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, kFrameError);
  }
}

TEST(ServeSession, DrainRequestIsSurfacedToTheDaemonLoop) {
  SessionHarness harness;
  ServeSession session(harness.core);
  EXPECT_FALSE(session.WantsDrain());
  harness.Exchange(session, kFrameDrain, "", true);
  EXPECT_TRUE(session.WantsDrain());

  const DrainedReply drained = harness.core.Drain();
  ASSERT_EQ(drained.tenants.size(), 2u);
  EXPECT_EQ(drained.tenants[0].name, "A");
  EXPECT_EQ(drained.tenants[0].state,
            static_cast<std::uint8_t>(TenantState::kDrained));
  EXPECT_EQ(drained.tenants[0].checkpoint, 0);  // no path configured
}

TEST(ServeCore, DuplicateTenantNameRejected) {
  ServeCore core;
  core.AddTenant(ManualTenant("A"), MakeMonitor(71));
  EXPECT_THROW(core.AddTenant(ManualTenant("A"), MakeMonitor(72)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// MonitorConfig::retrain — the detached RetrainPool inside the engine.
// ---------------------------------------------------------------------

std::string Serialize(const PairModel& model) {
  std::ostringstream out;
  SavePairModel(model, out);
  return out.str();
}

TEST(MonitorRetrain, DisabledKnobIsBitwiseInvisible) {
  // enabled-with-a-never-due-cadence must equal plainly-disabled, row
  // for row and byte for byte.
  const MeasurementFrame test = CorrelatedFrame(80, 81);

  MonitorConfig off = SmallConfig();
  auto plain = MakeMonitor(82, off);

  MonitorConfig armed = SmallConfig();
  armed.retrain.enabled = true;
  armed.retrain.pool.interval_samples = 1u << 20;  // never due
  auto idle = MakeMonitor(82, armed);
  ASSERT_NE(idle->Retrain(), nullptr);
  EXPECT_EQ(plain->Retrain(), nullptr);

  const std::vector<SampleRow> rows = Rows(test);
  for (const SampleRow& row : rows) {
    difftest::ExpectSnapshotsEqual(plain->Step(row.values, row.time),
                                   idle->Step(row.values, row.time));
  }
  EXPECT_EQ(CheckpointString(*plain), CheckpointString(*idle));
}

TEST(MonitorRetrain, AdoptedModelsAreBitwiseLearnOfTheWindow) {
  // Detached mode against the pool directly: after a cadence worth of
  // Observe calls the adoptable model must be exactly
  // PairModel::Learn(window) — same bytes, no drift, no shortcuts.
  ModelConfig model_config;
  model_config.partition.units = 30;
  model_config.partition.max_intervals = 8;
  RetrainPoolConfig pool_config;
  pool_config.threads = 1;
  pool_config.window_samples = 200;
  pool_config.interval_samples = 60;
  pool_config.min_samples = 50;
  RetrainPool pool(model_config, pool_config);

  Rng rng(91);
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < 200; ++i) {
    const double x = 50.0 + 20.0 * std::sin(static_cast<double>(i) * 0.05) +
                     rng.Normal(0.0, 1.0);
    xs.push_back(x);
    ys.push_back(2.0 * x + 10.0 + rng.Normal(0.0, 1.0));
  }
  ASSERT_EQ(pool.RegisterWindow(std::span<const double>(xs).first(100),
                                std::span<const double>(ys).first(100)),
            0u);

  for (std::size_t i = 100; i < 180; ++i) {
    pool.Observe(0, xs[i], ys[i]);
  }
  pool.WaitForIdle();
  const std::unique_ptr<PairModel> adopted = pool.TakeAdoptable(0);
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(pool.TakeAdoptable(0), nullptr);  // taken exactly once

  // Reconstruct the window the pool must have learned from: the seed
  // plus every observed sample up to the cadence tick that queued the
  // rebuild (interval 60 after the 100-sample seed -> 160 samples).
  const auto wx = std::span<const double>(xs).first(160);
  const auto wy = std::span<const double>(ys).first(160);
  const PairModel expected = PairModel::Learn(wx, wy, model_config);
  EXPECT_EQ(Serialize(*adopted), Serialize(expected));
}

TEST(MonitorRetrain, EngineAdoptsRetrainedModelAtAStepBoundary) {
  // A monitor whose pair relationship drifts: with the retrain knob on,
  // the engine must eventually adopt rebuilt models (visible as a
  // checkpoint that differs from the never-retrained twin's), and the
  // adoption must happen without disturbing sample accounting.
  MonitorConfig armed = SmallConfig();
  armed.retrain.enabled = true;
  armed.retrain.pool.threads = 1;
  armed.retrain.pool.window_samples = 300;
  armed.retrain.pool.interval_samples = 40;
  armed.retrain.pool.min_samples = 50;

  auto retraining = MakeMonitor(92, armed);
  auto frozen = MakeMonitor(92, SmallConfig());
  ASSERT_NE(retraining->Retrain(), nullptr);

  // A slow drift: same shape, new level — models keep scoring but the
  // rebuilt grid re-centers on the new range.
  Rng rng(93);
  const std::vector<SampleRow> rows = [&] {
    std::vector<SampleRow> out;
    for (std::size_t i = 0; i < 200; ++i) {
      const double load = 90.0 +
                          35.0 * std::sin(static_cast<double>(i) * 0.03) +
                          rng.Normal(0.0, 1.5);
      SampleRow row;
      row.time = static_cast<TimePoint>(i) * kPaperSamplePeriod;
      row.values = {load + rng.Normal(0.0, 0.8),
                    100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.4),
                    2.5 * load + 20.0 + rng.Normal(0.0, 2.0),
                    0.8 * load + 35.0 + rng.Normal(0.0, 1.5)};
      out.push_back(std::move(row));
    }
    return out;
  }();

  for (const SampleRow& row : rows) {
    retraining->Step(row.values, row.time);
    frozen->Step(row.values, row.time);
    retraining->Retrain()->WaitForIdle();  // deterministic adoption points
  }
  EXPECT_EQ(retraining->StepCount(), frozen->StepCount());

  std::size_t rebuilds = 0;
  for (std::size_t i = 0; i < retraining->Graph().PairCount(); ++i) {
    rebuilds += retraining->Retrain()->Rebuilds(i);
  }
  EXPECT_GT(rebuilds, 0u) << "cadence never fired";
  EXPECT_NE(CheckpointString(*retraining), CheckpointString(*frozen))
      << "no rebuilt model was ever adopted";
}

}  // namespace
}  // namespace pmcorr
