// Shared declarations of the serve benchmark: workload inputs, the
// daemon session and its observations, the correctness checks, and the
// traced per-layer replay. See README.md for what each number means.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/snapshot.h"
#include "io/csv.h"
#include "serve/protocol.h"
#include "timeseries/frame.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Every tenant's ingest queue budget in rows (`pmcorr serve`'s default).
inline constexpr std::size_t kQueueBudget = 256;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Value at quantile q (0..1) of `values` by nearest rank; 0 when empty.
double Quantile(std::vector<double> values, double q);

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// One tenant of a workload: the trace that trains it and the rows the
/// client streams to it.
struct TenantInput {
  std::string name;  // wire name; the trace file is <name>.csv
  char group = 'A';
  std::size_t machines = 0;
  std::size_t partners = 0;
  int train_days = 0;
  /// Generator seed of the tenant's trace, fixed per workload.
  std::uint64_t seed = 0;
  /// Drawn from the run seed: where in the training days the stream
  /// starts.
  std::uint64_t offset_draw = 0;
  /// The trace as the daemon reads it (written, then read back).
  pmcorr::MeasurementFrame frame;
  /// The streamed rows (the training days replayed), one block per
  /// daemon process: block 0 goes to the cold-started daemon, block
  /// b > 0 to a daemon restored from the checkpoint block b - 1 sealed.
  /// Timestamps continue the training cadence without a gap across all
  /// blocks.
  std::vector<std::vector<pmcorr::SampleRow>> blocks;

  std::string CsvPath() const { return name + ".csv"; }
  std::string CheckpointPath() const { return "ck/" + name + ".ckpt"; }
  /// A hard link to the checkpoint block b sealed, kept past rotation.
  std::string SealPath(std::size_t b) const {
    return "ck/" + name + ".seal" + std::to_string(b);
  }
  pmcorr::MeasurementFrame TrainingFrame() const;
};

struct Workload {
  std::string name;
  std::size_t checkpoint_every = 0;
  /// Daemon processes per run, one block of rows each.
  std::size_t blocks = 7;
  /// One summary and one drill-down query per this many rows sent.
  std::size_t query_every = 20;
  std::vector<TenantInput> tenants;
};

/// Builds the named workload's parameters (throws on an unknown name).
Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      int seconds);
/// A tiny one-tenant workload for the self-test.
Workload MakeSelfTestWorkload(std::uint64_t seed);
/// Generates every tenant's trace, writes it to <name>.csv in the
/// current directory, reads it back and cuts the streamed rows.
void MakeInputs(Workload& workload);
/// Columns of `rows` as a frame with the trace's measurements.
pmcorr::MeasurementFrame RowsAsFrame(const TenantInput& tenant,
                                     const std::vector<pmcorr::SampleRow>& rows);

// ---------------------------------------------------------------------
// Session: the daemon driven over its socket
// ---------------------------------------------------------------------

/// A published snapshot as the client reassembles it from one summary
/// and one drill-down per measurement.
struct PublishedView {
  std::uint64_t sample = 0;
  std::optional<double> q;
  std::vector<std::optional<double>> qa;
  std::vector<std::uint32_t> alarmed;  // from the summary, ascending
  std::vector<std::optional<double>> pair_scores;
  std::vector<std::uint8_t> pair_alarmed;
  /// Every drill-down reply behind the view (for the aggregation check).
  std::vector<pmcorr::DrilldownReply> drilldowns;
};

/// A query sent while rows streamed, with its reply.
struct QueryRecord {
  bool drilldown = false;
  double latency_ms = 0.0;
  pmcorr::SummaryReply summary;
  pmcorr::DrilldownReply drill;
};

/// What the client saw of one block: the snapshot after the block's
/// first row, the queries answered while the rest streamed, and the
/// final state before the drain.
struct BlockObservation {
  std::uint64_t rows_sent = 0;
  PublishedView first_view;
  std::vector<QueryRecord> queries;
  pmcorr::StatusReply final_status;
  PublishedView final_view;
  pmcorr::DrainedTenant drained;
};

struct TenantObservation {
  std::vector<BlockObservation> blocks;
  /// Size of the checkpoint block 0 sealed.
  std::uint64_t first_seal_bytes = 0;
};

struct SessionResult {
  double setup_s = 0.0;
  /// Means over the faster half of the blocks (ingest rate, drain) and
  /// of the warm launches.
  double ingest_rows_per_s = 0.0;
  double drain_s = 0.0;
  double restart_s = 0.0;
  /// Pooled over every streamed row / query of every block.
  double publish_p50_ms = 0.0;
  double publish_p99_ms = 0.0;
  std::size_t publish_samples = 0;
  double query_p50_ms = 0.0;
  double checkpoint_mib = 0.0;
  /// Highest peak RSS of any daemon process of the run.
  double rss_peak_mib = 0.0;
  std::uint64_t max_queue_rows = 0;
  std::uint64_t backpressure_raises = 0;
  std::uint64_t checkpoints = 0;
  std::vector<TenantObservation> tenants;
};

/// Runs the session in the current directory: a cold-started daemon
/// streams block 0 and drains, then each later block goes to a daemon
/// restored from the previous seal. `pmcorr` is the CLI binary. Throws
/// on any protocol or process failure.
SessionResult RunSession(const Workload& workload, const std::string& pmcorr);

// ---------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------

struct Reference {
  /// Per block, SystemMonitor::Run over the block's rows from the state
  /// the daemon started that block in: a monitor built from the same
  /// CSV for block 0, a monitor loaded from the previous seal after.
  std::vector<std::vector<pmcorr::SystemSnapshot>> blocks;
  /// Per block b > 0, the snapshot of its first row from the CSV-built
  /// monitor stepping through every block without a restart.
  std::vector<pmcorr::SystemSnapshot> never_stopped_first;
  /// Graph pairs (a, b) by pair index.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  /// Pair indices incident to each measurement, in graph order.
  std::vector<std::vector<std::uint32_t>> incident;
};

class Tracer;

/// Builds one tenant's reference computations. With a tracer, the CSV
/// read, graph, learn, Run and load calls are recorded as spans.
Reference BuildReference(const TenantInput& tenant, Tracer* tracer);

/// What the checks found. `problems` names the check in its prefix.
struct Verdict {
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool Reports(const std::string& check) const;
};

// Each check appends "<check>: ..." lines to the verdict.
/// Block 0 against the CSV-built monitor's Run.
void CheckIndependentPath(const TenantObservation& obs, const Reference& ref,
                          Verdict& v);
/// Blocks after a restart against Run from the monitor loaded from the
/// seal they were restored from.
void CheckRestore(const TenantObservation& obs, const Reference& ref,
                  Verdict& v);
void CheckAggregation(const TenantObservation& obs, const Reference& ref,
                      Verdict& v);
void CheckAccounting(const TenantObservation& obs, const Reference& ref,
                     Verdict& v);
/// Counts the session's operations: every row and query, plus one
/// restart-continuity operation per restored block, which fails when the
/// block's first snapshot differs from the never-stopped monitor (the
/// checkpoint drops each pair's previous cell).
void CountOperations(const TenantObservation& obs, const Reference& ref,
                     Verdict& v);

// ---------------------------------------------------------------------
// Tracing and the per-layer replay
// ---------------------------------------------------------------------

/// In-memory span recorder: name, start, end and parent of each span,
/// written out as JSON when the run ends.
class Tracer {
 public:
  int Begin(const char* name);
  void End(int id);
  double TotalSeconds(const std::string& name) const;
  std::vector<double> DurationsMs(const std::string& name) const;
  void WriteJson(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
  int open_ = -1;
  Clock::time_point origin_ = Clock::now();
};

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Replays every tenant's rows through the layers' public calls on this
/// thread and returns the per-layer metrics (the spans go to `tracer`).
/// Checks that the checkpoint rendered after block 0 matches the file
/// the daemon sealed then (`first_seal_bytes` long) less its trailer,
/// appending to `verdict` when it does not.
std::vector<LayerMetric> ReplayLayers(
    const Workload& workload, const std::vector<std::uint64_t>& first_seal_bytes,
    Tracer& tracer, Verdict& verdict);

}  // namespace perfbench
