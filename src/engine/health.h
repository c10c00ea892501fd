// Ingest guard: per-measurement health tracking for degraded collectors.
//
// The paper assumes a clean feed — one value per measurement every six
// minutes. Real collectors miss that contract in four ways: samples
// arrive late (a gap), twice (duplicate timestamps), out of order, or
// with a frozen value (a wedged agent replaying its last reading). The
// IngestGuard sits in front of SystemMonitor::Step/Run, detects each
// case against the learned cadence, and converts bad values to the NaN
// missing-sample path the models already understand — so a degraded
// stream can only ever *suppress* evidence, never fabricate transitions
// that fire alarms.
//
// Each measurement also carries a small health state machine
// (healthy -> stale -> dead, with flapping for unstable feeds) that the
// monitor exposes per snapshot, letting operators distinguish "this
// input alarmed" from "this input is gone".
//
// On a clean on-cadence stream the guard is bitwise invisible: values
// pass through untouched, no state changes, and the engine's output is
// identical to running without it (the golden-trace suite runs with the
// guard enabled).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/time.h"

namespace pmcorr {

/// Health of one measurement's feed, least to most degraded.
enum class MeasurementHealth : std::uint8_t {
  kHealthy = 0,   ///< delivering usable values on cadence
  kStale = 1,     ///< several consecutive samples missing or suppressed
  kFlapping = 2,  ///< bouncing between healthy and degraded
  kDead = 3,      ///< missing long enough to be considered gone
};

const char* MeasurementHealthName(MeasurementHealth health);

/// Stream-level anomaly detected for one arriving sample.
enum class StreamEvent : std::uint8_t {
  kNone = 0,        ///< on cadence
  kGap = 1,         ///< arrived late: one or more samples were skipped
  kDuplicate = 2,   ///< timestamp equal to the previous sample's
  kOutOfOrder = 3,  ///< timestamp earlier than the previous sample's
};

const char* StreamEventName(StreamEvent event);

/// Ingest-guard policy. The defaults are deliberately conservative: a
/// value must repeat bitwise-identically `frozen_after` times before it
/// is treated as frozen (real noisy telemetry never repeats a double
/// bitwise), so clean streams are untouched.
struct HealthConfig {
  /// Master switch; disabled means Filter passes everything through.
  bool enabled = true;

  /// Expected seconds between samples. 0 = learn it from the first two
  /// distinct timestamps (SystemMonitor seeds it from the history
  /// frame's period instead, so the guard knows the cadence from step
  /// one).
  Duration expected_period = 0;

  /// An arrival later than `late_factor * expected_period` after the
  /// previous sample is a gap: the guard reports a sequence break so the
  /// monitor resets per-pair transition state instead of scoring a
  /// transition across the hole.
  double late_factor = 1.5;

  /// Consecutive bitwise-identical values before a feed is considered
  /// frozen and its value suppressed to NaN. 0 disables frozen
  /// detection.
  std::size_t frozen_after = 12;

  /// Consecutive missing/suppressed samples before health drops to
  /// kStale.
  std::size_t stale_after = 4;

  /// Consecutive missing/suppressed samples before health drops to
  /// kDead. Defaults to ten stale windows (4 hours at the paper's
  /// 6-minute cadence).
  std::size_t dead_after = 40;

  /// Consecutive good samples before a stale/dead/flapping feed is
  /// declared healthy again.
  std::size_t recover_after = 3;

  /// Flap detection: if a feed leaves kHealthy `flap_transitions` or
  /// more times within its last `flap_window` samples it is marked
  /// kFlapping until it holds a recovery streak.
  std::size_t flap_window = 64;
  std::size_t flap_transitions = 4;
};

/// What the guard did to one arriving sample.
struct SampleReport {
  /// Stream-level anomaly for this arrival.
  StreamEvent event = StreamEvent::kNone;

  /// True when the caller must reset per-pair transition sequences
  /// before stepping the models (gap, duplicate, or out-of-order): the
  /// previous cell no longer refers to the immediately preceding
  /// cadence slot.
  bool sequence_break = false;

  /// Values this call replaced with NaN (frozen feeds, plus every value
  /// of a duplicate/out-of-order sample).
  std::size_t suppressed = 0;
};

/// The guard's stream clock: the last accepted timestamp and the
/// cadence in force. Checkpointed with the monitor (io/monitor_io.h), so
/// a restored guard still sees a gap that spans the restart.
struct StreamClock {
  bool has_last = false;
  TimePoint last = 0;
  Duration period = 0;

  friend bool operator==(const StreamClock&, const StreamClock&) = default;
};

/// The guard itself: feed each arriving sample through Filter (in
/// arrival order) before stepping the monitor. Filter mutates `values`
/// in place — suppressed entries become NaN — and advances the health
/// state machines. Not thread-safe; one guard per monitor, driven from
/// the serial ingest path.
class IngestGuard {
 public:
  IngestGuard() = default;
  IngestGuard(std::size_t measurement_count, HealthConfig config);

  bool Enabled() const { return config_.enabled && !states_.empty(); }
  const HealthConfig& Config() const { return config_; }

  /// Inspects (and possibly suppresses) one arriving sample. `values`
  /// must hold one entry per measurement.
  SampleReport Filter(std::span<double> values, TimePoint tp);

  /// Health of measurement `m` after the last Filter call.
  MeasurementHealth Health(std::size_t m) const {
    return states_[m].health;
  }

  /// Number of measurement feeds tracked.
  std::size_t FeedCount() const { return states_.size(); }

  /// All measurement healths, indexed by measurement id.
  std::vector<MeasurementHealth> HealthStates() const;

  /// Allocation-reusing variant: fills `out` (capacity permitting,
  /// without touching the heap) — the monitor's steady-state Step path.
  void CopyHealthStates(std::vector<MeasurementHealth>& out) const;

  /// True when every feed is currently kHealthy (the common case; lets
  /// callers skip copying health vectors on clean streams).
  bool AllHealthy() const { return degraded_ == 0; }

  /// Lifetime count of values suppressed to NaN.
  std::size_t SuppressedTotal() const { return suppressed_total_; }

  /// Lifetime counts of each non-kNone stream event.
  std::size_t GapCount() const { return gaps_; }
  std::size_t DuplicateCount() const { return duplicates_; }
  std::size_t OutOfOrderCount() const { return out_of_order_; }

  /// The cadence the guard is enforcing (0 until learned).
  Duration ExpectedPeriod() const { return config_.expected_period; }

  /// The stream clock, for checkpoints.
  StreamClock Clock() const {
    return {has_last_tp_, last_tp_, config_.expected_period};
  }

  /// Resumes a checkpointed clock. A clock that never learned its
  /// period (0) keeps the configured one.
  void RestoreClock(const StreamClock& clock) {
    has_last_tp_ = clock.has_last;
    last_tp_ = clock.last;
    if (clock.period != 0) config_.expected_period = clock.period;
  }

  /// Forgets per-feed value history and timing (call between
  /// discontiguous segments, alongside SystemMonitor::ResetSequences);
  /// health states and lifetime counters persist.
  void ResetTiming();

 private:
  struct FeedState {
    MeasurementHealth health = MeasurementHealth::kHealthy;
    /// Bit pattern of the last non-NaN accepted value (bitwise compare:
    /// NaN payloads and signed zeros are distinguished, and equality is
    /// exact — no tolerance that could trip on real noise).
    std::uint64_t last_bits = 0;
    bool has_last = false;
    /// Consecutive arrivals repeating last_bits (including the first).
    std::size_t frozen_run = 0;
    /// Consecutive samples this feed contributed nothing (NaN in, or
    /// suppressed).
    std::size_t missing_run = 0;
    /// Consecutive samples this feed contributed a usable value.
    std::size_t good_run = 0;
    /// Samples since the feed last left kHealthy (flap window position).
    std::size_t since_degrade = 0;
    /// Times the feed left kHealthy within the current flap window.
    std::size_t recent_degrades = 0;
  };

  void UpdateHealth(FeedState& feed, bool usable);

  HealthConfig config_;
  std::vector<FeedState> states_;
  TimePoint last_tp_ = 0;
  bool has_last_tp_ = false;
  std::size_t degraded_ = 0;  // feeds currently not kHealthy
  std::size_t suppressed_total_ = 0;
  std::size_t gaps_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t out_of_order_ = 0;
};

}  // namespace pmcorr
