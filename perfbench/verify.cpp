// Correctness checks: what the client saw against computations the
// benchmark makes itself with the program's batched path
// (SystemMonitor::Run), which is a separate implementation from the
// Step path the daemon serves from.
#include <algorithm>
#include <cstring>
#include <future>
#include <optional>

#include "bench.h"
#include "common/time.h"
#include "engine/measurement_graph.h"
#include "engine/monitor.h"
#include "io/monitor_io.h"

namespace perfbench {

using namespace pmcorr;

namespace {

// Each check reports at most this many findings; the rest are counted.
constexpr std::size_t kMaxFindings = 8;

bool SameBits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool Same(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || SameBits(*a, *b);
}

/// Appends findings under one check's name.
class Findings {
 public:
  Findings(Verdict& v, const char* check) : v_(v), check_(check) {}
  ~Findings() {
    if (dropped_ > 0) {
      v_.problems.push_back(check_ + ": " + std::to_string(dropped_) +
                            " more findings");
    }
  }
  Findings(const Findings&) = delete;
  Findings& operator=(const Findings&) = delete;

  void Add(const std::string& what) {
    if (count_++ < kMaxFindings) {
      v_.problems.push_back(check_ + ": " + what);
    } else {
      ++dropped_;
    }
  }

 private:
  Verdict& v_;
  std::string check_;
  std::size_t count_ = 0;
  std::size_t dropped_ = 0;
};

/// Empty when `view` is bitwise the snapshot `snap`; else the first
/// difference.
std::string DiffView(const PublishedView& view, const SystemSnapshot& snap) {
  if (view.sample != snap.sample) {
    return "sample " + std::to_string(view.sample) + " vs " +
           std::to_string(snap.sample);
  }
  if (!Same(view.q, snap.system_score)) return "Q differs";
  if (view.qa.size() != snap.measurement_scores.size()) return "Q^a width";
  for (std::size_t a = 0; a < view.qa.size(); ++a) {
    if (!Same(view.qa[a], snap.measurement_scores[a])) {
      return "Q^a of measurement " + std::to_string(a) + " differs";
    }
  }
  if (view.pair_scores.size() != snap.pair_scores.size()) return "pair count";
  std::vector<std::uint8_t> alarmed(snap.pair_scores.size(), 0);
  for (const std::size_t p : snap.alarmed_pairs) alarmed[p] = 1;
  for (std::size_t p = 0; p < view.pair_scores.size(); ++p) {
    if (!Same(view.pair_scores[p], snap.pair_scores[p])) {
      return "Q^{a,b} of pair " + std::to_string(p) + " differs";
    }
    if (view.pair_alarmed[p] != alarmed[p]) {
      return "alarm flag of pair " + std::to_string(p) + " differs";
    }
  }
  if (view.alarmed.size() != snap.alarmed_pairs.size() ||
      !std::equal(view.alarmed.begin(), view.alarmed.end(),
                  snap.alarmed_pairs.begin())) {
    return "alarmed pair list differs";
  }
  return {};
}

std::string DiffSummary(const SummaryReply& r, const SystemSnapshot& snap) {
  if (!Same(r.system_score, snap.system_score)) return "Q differs";
  if (r.measurement_scores.size() != snap.measurement_scores.size()) {
    return "Q^a width";
  }
  for (std::size_t a = 0; a < r.measurement_scores.size(); ++a) {
    if (!Same(r.measurement_scores[a], snap.measurement_scores[a])) {
      return "Q^a of measurement " + std::to_string(a) + " differs";
    }
  }
  if (r.alarmed_pairs.size() != snap.alarmed_pairs.size() ||
      !std::equal(r.alarmed_pairs.begin(), r.alarmed_pairs.end(),
                  snap.alarmed_pairs.begin())) {
    return "alarmed pair list differs";
  }
  return {};
}

std::string DiffDrilldown(const DrilldownReply& r, const SystemSnapshot& snap,
                          const Reference& ref) {
  if (!Same(r.system_score, snap.system_score)) return "Q differs";
  if (r.measurement >= snap.measurement_scores.size() ||
      !Same(r.measurement_score, snap.measurement_scores[r.measurement])) {
    return "Q^a differs";
  }
  const std::vector<std::uint32_t>& incident = ref.incident[r.measurement];
  if (r.pairs.size() != incident.size()) return "incident pair count";
  for (std::size_t k = 0; k < r.pairs.size(); ++k) {
    const DrilldownPair& p = r.pairs[k];
    if (p.pair_index != incident[k] || p.a != ref.pairs[p.pair_index].first ||
        p.b != ref.pairs[p.pair_index].second) {
      return "pair topology differs at " + std::to_string(p.pair_index);
    }
    const std::optional<double> score =
        p.has_score ? std::optional<double>(p.score) : std::nullopt;
    if (!Same(score, snap.pair_scores[p.pair_index])) {
      return "Q^{a,b} of pair " + std::to_string(p.pair_index) + " differs";
    }
    const bool alarmed =
        std::find(snap.alarmed_pairs.begin(), snap.alarmed_pairs.end(),
                  p.pair_index) != snap.alarmed_pairs.end();
    if (p.alarmed != alarmed) return "alarm flag differs";
  }
  return {};
}

bool InUnit(const std::optional<double>& s) {
  return !s || (*s >= 0.0 && *s <= 1.0);
}

/// Mean of the engaged scores in the given order — the paper's
/// aggregation, summed in the order the engine documents.
std::optional<double> Mean(const std::vector<std::optional<double>>& scores) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const std::optional<double>& s : scores) {
    if (s) {
      sum += *s;
      ++n;
    }
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

/// Q is the mean of the engaged Q^a and every score lies in [0, 1].
void CheckSystemLevel(const std::optional<double>& q,
                      const std::vector<std::optional<double>>& qa,
                      const std::string& where, Findings& f) {
  if (!InUnit(q)) f.Add(where + ": Q outside [0,1]");
  for (const std::optional<double>& s : qa) {
    if (!InUnit(s)) f.Add(where + ": Q^a outside [0,1]");
  }
  if (!Same(q, Mean(qa))) f.Add(where + ": Q is not the mean of its Q^a");
}

/// Q^a is the mean of the engaged Q^{a,b} of its pairs.
void CheckMeasurementLevel(const std::optional<double>& qa,
                           const std::vector<std::optional<double>>& pairs,
                           const std::string& where, Findings& f) {
  for (const std::optional<double>& s : pairs) {
    if (!InUnit(s)) f.Add(where + ": Q^{a,b} outside [0,1]");
  }
  if (!Same(qa, Mean(pairs))) {
    f.Add(where + ": Q^a is not the mean of its pairs");
  }
}

std::vector<std::optional<double>> DrilldownScores(const DrilldownReply& r) {
  std::vector<std::optional<double>> scores;
  for (const DrilldownPair& p : r.pairs) {
    scores.push_back(p.has_score ? std::optional<double>(p.score)
                                 : std::nullopt);
  }
  return scores;
}

void CheckSnapshotAggregation(const SystemSnapshot& snap, const Reference& ref,
                              const std::string& where, Findings& f) {
  CheckSystemLevel(snap.system_score, snap.measurement_scores, where, f);
  for (std::size_t a = 0; a < ref.incident.size(); ++a) {
    std::vector<std::optional<double>> pairs;
    for (const std::uint32_t p : ref.incident[a]) {
      pairs.push_back(snap.pair_scores[p]);
    }
    CheckMeasurementLevel(snap.measurement_scores[a], pairs, where, f);
  }
}

void CheckViewAggregation(const PublishedView& view, const std::string& where,
                          Findings& f) {
  CheckSystemLevel(view.q, view.qa, where, f);
  for (const DrilldownReply& d : view.drilldowns) {
    CheckMeasurementLevel(d.measurement_score, DrilldownScores(d), where, f);
    if (d.measurement >= view.qa.size() ||
        !Same(d.measurement_score, view.qa[d.measurement])) {
      f.Add(where + ": drill-down Q^a disagrees with the summary");
    }
  }
}

}  // namespace

bool Verdict::Reports(const std::string& check) const {
  for (const std::string& p : problems) {
    if (p.rfind(check + ":", 0) == 0) return true;
  }
  return false;
}

Reference BuildReference(const TenantInput& tenant, Tracer* tracer) {
  Reference ref;
  std::unique_ptr<SystemMonitor> monitor;
  {
    const Tracer::Scope span(tracer, "reference");
    MeasurementFrame frame;
    {
      const Tracer::Scope s(tracer, "setup.csv_read");
      frame = ReadFrameCsv(tenant.CsvPath());
    }
    const MeasurementFrame train = frame.SliceByTime(
        frame.StartTime(), frame.StartTime() + tenant.train_days * kDay);
    std::optional<MeasurementGraph> graph;
    {
      const Tracer::Scope s(tracer, "setup.graph");
      graph = MeasurementGraph::Neighborhood(train, tenant.partners, 7);
    }
    MonitorConfig config;
    config.threads = 1;
    {
      const Tracer::Scope s(tracer, "setup.learn");
      monitor =
          std::make_unique<SystemMonitor>(train, std::move(*graph), config);
    }
    const MeasurementFrame block0 = RowsAsFrame(tenant, tenant.blocks[0]);
    const Tracer::Scope s(tracer, "engine.run");
    ref.blocks.push_back(monitor->Run(block0));
  }
  const MeasurementGraph& g = monitor->Graph();
  for (std::size_t p = 0; p < g.PairCount(); ++p) {
    ref.pairs.emplace_back(static_cast<std::uint32_t>(g.Pair(p).a.value),
                           static_cast<std::uint32_t>(g.Pair(p).b.value));
  }
  for (std::size_t a = 0; a < monitor->MeasurementCount(); ++a) {
    std::vector<std::uint32_t> incident;
    for (const std::size_t p :
         g.PairsOf(MeasurementId(static_cast<std::int32_t>(a)))) {
      incident.push_back(static_cast<std::uint32_t>(p));
    }
    ref.incident.push_back(std::move(incident));
  }
  // The same monitor steps on through every later block without a
  // restart; only each block's first snapshot is kept.
  ref.never_stopped_first.resize(tenant.blocks.size());
  for (std::size_t b = 1; b < tenant.blocks.size(); ++b) {
    ref.never_stopped_first[b] =
        monitor->Run(RowsAsFrame(tenant, tenant.blocks[b])).front();
  }
  monitor.reset();

  // Block b restarted from the seal of block b - 1. Untraced runs load
  // and replay up to kLoadThreads seals at a time: nothing is being
  // timed now, and the loads are most of the verifier's time.
  constexpr std::size_t kLoadThreads = 3;
  auto restored = [&tenant, tracer](std::size_t b) {
    std::unique_ptr<SystemMonitor> loaded;
    {
      const Tracer::Scope s(tracer, "restore.load");
      loaded = LoadSystemMonitor(tenant.SealPath(b - 1), 1);
    }
    return loaded->Run(RowsAsFrame(tenant, tenant.blocks[b]));
  };
  for (std::size_t first = 1; first < tenant.blocks.size();
       first += kLoadThreads) {
    std::vector<std::future<std::vector<SystemSnapshot>>> pending;
    for (std::size_t b = first;
         b < std::min(first + kLoadThreads, tenant.blocks.size()); ++b) {
      pending.push_back(std::async(
          tracer != nullptr ? std::launch::deferred : std::launch::async,
          restored, b));
    }
    for (std::future<std::vector<SystemSnapshot>>& f : pending) {
      ref.blocks.push_back(f.get());
    }
  }
  return ref;
}

namespace {

/// One block's published views and query replies against the reference
/// snapshots of that block.
void CheckBlock(const BlockObservation& obs,
                const std::vector<SystemSnapshot>& snaps, const Reference& ref,
                Findings& f) {
  if (snaps.empty()) {
    f.Add("reference has no rows");
    return;
  }
  std::string diff = DiffView(obs.first_view, snaps.front());
  if (!diff.empty()) f.Add("first published snapshot: " + diff);
  diff = DiffView(obs.final_view, snaps.back());
  if (!diff.empty()) f.Add("final published snapshot: " + diff);
  const std::uint64_t base = snaps.front().sample;
  for (const QueryRecord& q : obs.queries) {
    const std::uint64_t sample = q.drilldown ? q.drill.sample : q.summary.sample;
    if (sample < base || sample - base >= snaps.size()) {
      f.Add("query answered for sample " + std::to_string(sample) +
            " outside the block");
      continue;
    }
    const SystemSnapshot& snap = snaps[sample - base];
    const std::string d = q.drilldown ? DiffDrilldown(q.drill, snap, ref)
                                      : DiffSummary(q.summary, snap);
    if (!d.empty()) {
      f.Add(std::string(q.drilldown ? "drill-down" : "summary") +
            " at sample " + std::to_string(sample) + ": " + d);
    }
  }
}

}  // namespace

void CheckIndependentPath(const TenantObservation& obs, const Reference& ref,
                          Verdict& v) {
  Findings f(v, "independent-path");
  CheckBlock(obs.blocks[0], ref.blocks[0], ref, f);
}

void CheckRestore(const TenantObservation& obs, const Reference& ref,
                  Verdict& v) {
  Findings f(v, "restore");
  for (std::size_t b = 1; b < obs.blocks.size(); ++b) {
    CheckBlock(obs.blocks[b], ref.blocks[b], ref, f);
  }
}

void CheckAggregation(const TenantObservation& obs, const Reference& ref,
                      Verdict& v) {
  Findings f(v, "aggregation");
  for (const BlockObservation& block : obs.blocks) {
    CheckViewAggregation(block.first_view, "first view", f);
    CheckViewAggregation(block.final_view, "final view", f);
    for (const QueryRecord& q : block.queries) {
      if (q.drilldown && q.drill.has_snapshot) {
        CheckMeasurementLevel(q.drill.measurement_score,
                              DrilldownScores(q.drill), "drill-down", f);
      } else if (!q.drilldown && q.summary.has_snapshot) {
        CheckSystemLevel(q.summary.system_score, q.summary.measurement_scores,
                         "summary", f);
      }
    }
  }
  for (const std::vector<SystemSnapshot>& snaps : ref.blocks) {
    for (const SystemSnapshot& snap : snaps) {
      CheckSnapshotAggregation(
          snap, ref, "reference sample " + std::to_string(snap.sample), f);
    }
  }
}

void CheckAccounting(const TenantObservation& obs, const Reference& ref,
                     Verdict& v) {
  Findings f(v, "accounting");
  for (std::size_t b = 0; b < obs.blocks.size(); ++b) {
    const BlockObservation& block = obs.blocks[b];
    const std::uint64_t rows = ref.blocks[b].size();
    const std::string where = "block " + std::to_string(b) + ": ";
    const StatusReply& s = block.final_status;
    if (s.submitted != s.accepted + s.shed_ticks + s.rejected) {
      f.Add(where + "submitted != accepted + shed + rejected");
    }
    if (block.rows_sent != rows || s.accepted != rows || s.processed != rows) {
      f.Add(where + "sent " + std::to_string(block.rows_sent) + ", accepted " +
            std::to_string(s.accepted) + ", processed " +
            std::to_string(s.processed) + ", reference rows " +
            std::to_string(rows));
    }
    if (block.drained.processed != rows || block.drained.state != 2 ||
        block.drained.checkpoint != 1) {
      f.Add(where + "drain reports " + std::to_string(block.drained.processed) +
            " rows, state " + std::to_string(block.drained.state) +
            ", checkpoint " + std::to_string(block.drained.checkpoint));
    }
  }
}

void CountOperations(const TenantObservation& obs, const Reference& ref,
                     Verdict& v) {
  for (std::size_t b = 0; b < obs.blocks.size(); ++b) {
    const BlockObservation& block = obs.blocks[b];
    // Rows streamed and queries answered: each is checked above and
    // fails the run when wrong.
    v.attempted += block.rows_sent + block.queries.size();
    if (b == 0) continue;
    // Restart continuity: the restored block's first snapshot against
    // the monitor that never stopped. The checkpoint drops each pair's
    // previous cell, so the restored tenant scores no pair on that row
    // and this fails on every input.
    v.attempted += 1;
    if (!DiffView(block.first_view, ref.never_stopped_first[b]).empty()) {
      v.failed += 1;
    }
  }
}

}  // namespace perfbench
