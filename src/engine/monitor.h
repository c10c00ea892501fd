// SystemMonitor — the paper's full framework (Figure 6) over a whole
// distributed system: one PairModel per graph edge, driven sample by
// sample, with the three-level fitness aggregation of Section 5
// (Q^{a,b} per pair -> Q^a per measurement -> Q for the system).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/calibration.h"
#include "core/config.h"
#include "engine/alarm.h"
#include "core/fitness.h"
#include "core/model.h"
#include "engine/health.h"
#include "engine/measurement_graph.h"
#include "engine/quarantine.h"
#include "engine/retrain_pool.h"
#include "engine/snapshot.h"
#include "engine/thread_pool.h"
#include "timeseries/frame.h"

namespace pmcorr {

struct EngineFaultPlan;

/// Rolling-retrain knob: when enabled the monitor owns a shared bounded
/// RetrainPool (engine/retrain_pool.h) in detached mode — one window
/// slot per pair, a fixed worker count — and adopts finished rebuilds
/// at sample boundaries, replacing the standalone per-pair retrainers.
/// Windows buffer the guard-filtered feed (rebuilds learn from exactly
/// the stream the serving models saw) and are not part of the
/// checkpoint format: a restored monitor starts with empty windows and
/// pool.min_samples keeps it from rebuilding until they refill live.
/// Adopted models carry fresh Learn-time thresholds, not a later
/// CalibrateThresholds overlay — the RollingPairRetrainer semantics.
struct RetrainConfig {
  bool enabled = false;
  RetrainPoolConfig pool;
};

/// Engine configuration.
struct MonitorConfig {
  /// Shared configuration of every pair model.
  ModelConfig model;
  /// Worker threads for initialization, calibration and batched runs
  /// (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Samples per pair-major batch in Run(): each worker sweeps its shard
  /// of pairs across this many samples between merge phases. 0 sizes the
  /// batch automatically so the per-batch outcome buffer stays around
  /// 32 MiB; 1 degenerates to sample-major stepping. Any value produces
  /// the identical snapshot/alarm stream — this is purely a
  /// memory/latency knob.
  std::size_t batch_samples = 0;
  /// Ingest guard: degraded-stream detection in front of the models
  /// (engine/health.h). Enabled by default; bitwise invisible on clean
  /// on-cadence streams.
  HealthConfig health;
  /// Per-pair circuit breaker (engine/quarantine.h). Enabled by default
  /// for exceptions; the outlier-burst breaker stays off unless armed.
  QuarantineConfig quarantine;
  /// Rolling retrain through the shared bounded pool. Off by default —
  /// a disabled knob is bitwise invisible everywhere.
  RetrainConfig retrain;
};

/// Phase timings of the last Run/RunDelta call, for scale benchmarks:
/// the pair-major model sweep (parallel), the alarm-log k-way merge, and
/// snapshot/delta assembly (parallel per-sample work plus the serial
/// lifetime-averager pass).
struct RunStats {
  double sweep_seconds = 0.0;
  double alarm_merge_seconds = 0.0;
  double assemble_seconds = 0.0;
  std::size_t batches = 0;
};

class SystemMonitor {
 public:
  /// Learns one PairModel per graph edge from the history frame (the
  /// models' initialization data) in parallel.
  SystemMonitor(const MeasurementFrame& history, MeasurementGraph graph,
                MonitorConfig config);

  /// Restores a monitor from checkpointed parts (see io/monitor_io.h):
  /// pre-built pair models (one per graph edge, same order), the
  /// lifetime aggregates and the ingest guard's stream clock. Used for
  /// restart-without-relearning.
  SystemMonitor(MonitorConfig config, MeasurementGraph graph,
                std::vector<MeasurementInfo> infos,
                std::vector<PairModel> models,
                std::vector<ScoreAverager> measurement_averages,
                ScoreAverager system_average, std::size_t steps,
                const StreamClock& clock = {});

  /// Feeds one aligned sample (values[i] = measurement i) and returns the
  /// snapshot; `tp` is the sample's timestamp.
  SystemSnapshot Step(std::span<const double> values, TimePoint tp);

  /// Allocation-reusing overload: assembles the snapshot into `out`,
  /// reusing its vectors' capacity. After a warmup tick the steady-state
  /// path is malloc-free (verified by tests/test_alloc_audit.cpp) — the
  /// long-running ingest loop of a shard-scale deployment steps at a
  /// fixed memory footprint.
  void Step(std::span<const double> values, TimePoint tp,
            SystemSnapshot& out);

  /// Feeds an entire test frame (its measurements must line up with the
  /// history frame) and returns one snapshot per sample.
  ///
  /// Pair-major batched execution: instead of a fork/join barrier per
  /// sample (the Step loop), each worker takes a contiguous shard of
  /// pairs and sweeps a whole batch of samples for its shard in one pass
  /// — per-pair state (previous cell, grid extensions, alarm bounds) is
  /// private to the pair, so the sweep is embarrassingly parallel. The
  /// post-sweep phase is sharded too: workers sort shard-local alarm
  /// logs (merged by a deterministic k-way merge) and assemble the pure
  /// per-sample snapshot fields in parallel; only the lifetime-averager
  /// updates stay serial, in time order, because floating-point
  /// accumulation order is part of the bitwise contract. The stream is
  /// bitwise identical to calling Step once per sample (proven by
  /// tests/test_differential.cpp).
  std::vector<SystemSnapshot> Run(const MeasurementFrame& test);

  /// Like Run, but emits incremental SystemDeltas instead of full
  /// snapshots: the first tick (or the first after tracking was
  /// invalidated by Step/Run/AddPair/RetirePair/calibration) is a
  /// baseline restating the engaged state; every other tick carries
  /// only pairs/measurements whose score changed bits since the
  /// previous tick, so a quiet tick is O(changes), not O(pairs). The
  /// engine state advances exactly as Run would (same models, averages,
  /// alarms — ReconstructSnapshots(deltas) is bitwise identical to
  /// Run's snapshots, proven by tests/test_delta.cpp).
  std::vector<SystemDelta> RunDelta(const MeasurementFrame& test);

  /// Phase timings of the last Run/RunDelta call.
  const RunStats& LastRunStats() const { return run_stats_; }

  /// Forgets the per-pair previous cells (call between discontiguous
  /// segments, e.g. train -> test gaps).
  void ResetSequences();

  /// Dynamic topology: appends one pair to the running monitor (a
  /// machine joined the fleet and warmed up). The model arrives
  /// pre-built — learned elsewhere, typically on the warmup slice — and
  /// has its sequence reset so its first step starts a fresh transition
  /// chain. Call between Step/Run calls only (the serial sections of the
  /// thread-safety contract). Returns the new pair's index; existing
  /// pair indices, models and scores are untouched — proven bitwise by
  /// tests/test_dynamic_topology.cpp. Note: AddPair/RetirePair state is
  /// not part of the checkpoint format (io/monitor_io.h); a restored
  /// monitor must replay its topology script.
  std::size_t AddPair(PairId pair, PairModel model);

  /// Convenience overload: learns the pair's model from `history` (same
  /// width as the monitor's frame) with the monitor's model config.
  std::size_t AddPair(PairId pair, const MeasurementFrame& history);

  /// Dynamic topology: administratively retires pair `pair_index` (its
  /// machine left the fleet). The pair is skipped from the next sample
  /// on — its snapshot slot reads disengaged, exactly like a
  /// quarantine-retired pair — while every other pair's scores stay
  /// bitwise identical. Requires the quarantine breaker (the disengage
  /// path) to be enabled; throws std::logic_error otherwise. Idempotent.
  void RetirePair(std::size_t pair_index);

  /// Per-pair alarm calibration: replays a clean holdout frame through a
  /// frozen copy of each pair model and arms that pair's fitness/delta
  /// bounds at the `target_false_positive_rate` quantile of its own
  /// scores (each pair has its own predictability, so one global bound
  /// over- or under-alarms; see core/calibration.h). Runs in parallel;
  /// leaves the per-pair sequences reset.
  void CalibrateThresholds(const MeasurementFrame& holdout,
                           double target_false_positive_rate);

  const MeasurementGraph& Graph() const { return graph_; }
  std::size_t MeasurementCount() const { return infos_.size(); }
  const std::vector<MeasurementInfo>& Infos() const { return infos_; }
  const PairModel& Model(std::size_t pair_index) const {
    return models_.at(pair_index);
  }

  /// Lifetime mean of Q^a per measurement (over engaged samples) — feeds
  /// the per-machine localization of Figure 14.
  const std::vector<ScoreAverager>& MeasurementAverages() const {
    return measurement_avg_;
  }

  /// Lifetime mean of the system score Q — the "average fitness score" of
  /// Figure 13(a).
  const ScoreAverager& SystemAverage() const { return system_avg_; }

  /// Samples processed so far.
  std::size_t StepCount() const { return steps_; }

  /// Every pair alarm raised so far (time, pair index, fitness,
  /// outlier flag) — feeds drill-down and noisy-pair reports.
  const AlarmLog& Alarms() const { return alarm_log_; }

  /// The ingest guard's current view of every measurement feed.
  const IngestGuard& Health() const { return guard_; }

  /// The per-pair circuit breaker's current state.
  const PairQuarantine& Quarantine() const { return quarantine_; }

  /// The shared retrain pool, or nullptr when config.retrain is off.
  /// Exposed for observability (rebuild/failure counters) and test
  /// choreography (WaitForPair/WaitForIdle) — the monitor itself drives
  /// adoption at sample boundaries.
  RetrainPool* Retrain() { return retrain_.get(); }
  const RetrainPool* Retrain() const { return retrain_.get(); }

  /// Installs a scripted engine fault plan (engine/fault_plan.h) checked
  /// at every pair step; pass nullptr to clear. Non-owning — the plan
  /// must outlive its installation. Test-only seam: production monitors
  /// never install one.
  void SetFaultPlanForTest(const EngineFaultPlan* plan) {
    fault_plan_ = plan;
  }

  /// Audits the engine-level invariants: one model per graph pair,
  /// per-measurement info/averager arrays sized to the graph, every
  /// graph pair referencing valid measurement ids, and finite lifetime
  /// aggregates with count <= steps. With `deep` (the default, used
  /// post-construction and post-deserialize) every pair model is
  /// audited too; the post-Step hook passes deep = false because each
  /// PairModel::Step already audited its own model.
  void CheckInvariants(bool deep = true) const;

 private:
  friend struct InvariantTestPeer;

  /// Compact per-(pair, sample) result of a pair-major sweep — only the
  /// fields the assembly phase needs.
  struct SweepCell {
    double fitness = 0.0;
    bool has_score = false;
    bool alarm = false;
    bool outlier = false;
    bool extended = false;
    // The quarantine skipped this (pair, sample) — or the pair tripped
    // mid-sample and produced nothing.
    bool skipped = false;
  };

  /// Ingest-guard pre-pass results for one Run/RunDelta call.
  struct GuardPrepass {
    std::vector<SampleReport> reports;
    std::vector<MeasurementHealth> health_timeline;  // samples x m
    std::vector<std::vector<double>> filtered;       // lazily built
    std::vector<std::uint8_t> seq_break;
    bool any_break = false;
  };

  /// Level 2 + 3 of Section 5 over an already-filled pair_scores vector
  /// (pure arithmetic — no monitor state touched), shared by Step and
  /// the parallel assembly of Run/RunDelta.
  void ComputeAggregates(SystemSnapshot& snap) const;

  /// ComputeAggregates plus the lifetime averager updates and the step
  /// counter — the exact per-sample aggregation of the Step path.
  void FinishSnapshot(SystemSnapshot& snap);

  /// Shared Run/RunDelta driver: guard pre-pass, pair-major batched
  /// sweep, sharded assembly. Exactly one of snapshots/deltas is set.
  void RunImpl(const MeasurementFrame& test,
               std::vector<SystemSnapshot>* snapshots,
               std::vector<SystemDelta>* deltas);

  /// Serial ingest-guard pre-pass over the whole frame (the guard is a
  /// serial state machine); fills prepass reusing its capacity.
  void BuildGuardPrepass(const MeasurementFrame& test, GuardPrepass& prepass);

  /// Batch width used by Run for a given pair count (resolves
  /// config_.batch_samples == 0 to the auto size).
  std::size_t BatchSamples(std::size_t pair_count) const;

  /// Shared AddPair body: graph append + model install + quarantine and
  /// retrain-window slots. (x, y) seed the pair's retrain window (empty
  /// when no history is at hand).
  std::size_t AddPairImpl(PairId pair, PairModel model,
                          std::span<const double> x,
                          std::span<const double> y);

  MonitorConfig config_;
  MeasurementGraph graph_;
  std::vector<MeasurementInfo> infos_;
  std::vector<PairModel> models_;
  ThreadPool pool_;

  std::vector<ScoreAverager> measurement_avg_;
  ScoreAverager system_avg_;
  AlarmLog alarm_log_;
  std::size_t steps_ = 0;

  /// Step()'s per-call outcome buffer, reused across samples so the
  /// sample-major loop doesn't allocate pair_count outcomes per sample.
  std::vector<StepOutcome> step_scratch_;

  /// Degraded-mode machinery. guard_values_ is Step()'s mutable copy of
  /// the caller's row (the guard suppresses in place); step_skipped_
  /// marks pairs the quarantine skipped this sample (per-pair slots, so
  /// workers write without synchronization).
  IngestGuard guard_;
  PairQuarantine quarantine_;
  /// Detached-mode retrain pool (one window slot per pair, indices
  /// aligned with models_); null when config_.retrain is off.
  std::unique_ptr<RetrainPool> retrain_;
  const EngineFaultPlan* fault_plan_ = nullptr;
  std::vector<double> guard_values_;
  std::vector<std::uint8_t> step_skipped_;

  /// Run/RunDelta scratch, persisted across batches and calls so the
  /// steady-state batch loop allocates nothing: the sweep-cell arena
  /// (pairs x batch), per-shard alarm logs + merge cursors, resolved
  /// input columns, the per-batch Q^a arena, and the guard pre-pass.
  RunStats run_stats_;
  std::vector<SweepCell> run_cells_;
  std::vector<AlarmLog> run_shard_logs_;
  std::vector<std::size_t> run_merge_cursors_;
  std::vector<std::span<const double>> run_xs_;
  std::vector<std::span<const double>> run_ys_;
  std::vector<std::optional<double>> run_qa_;  // batch x m, per-sample Q^a
  GuardPrepass run_guard_;

  /// Dirty-pair tracking for RunDelta: the engaged state, score bits,
  /// Q^a and feed health of the last emitted tick. Valid only while no
  /// other state-advancing call interleaves (Step, full Run, topology
  /// or calibration changes invalidate it — the next RunDelta re-emits
  /// a baseline).
  bool delta_valid_ = false;
  std::vector<std::uint8_t> delta_pair_engaged_;
  std::vector<double> delta_pair_score_;
  std::vector<std::optional<double>> delta_qa_;
  std::vector<MeasurementHealth> delta_health_;
};

}  // namespace pmcorr
