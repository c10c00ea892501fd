// Workload parameters and input generation. Each tenant's trace comes
// from the program's own generator with a seed fixed per workload, so
// its model sizes (and with them checkpoint bytes, drain and restart)
// are the same in every run; the --seed argument picks where in the
// training days the replayed stream starts. The daemon receives only
// the written CSV and the streamed rows.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.h"
#include "common/time.h"
#include "io/csv.h"
#include "telemetry/generator.h"
#include "telemetry/scenarios.h"

namespace perfbench {

using pmcorr::kDay;
using pmcorr::MeasurementFrame;
using pmcorr::SampleRow;

namespace {


/// Fixed per-tenant trace seed: the tenant (topology, training days and
/// so its model sizes) is part of the workload, not of the run.
std::uint64_t TraceSeed(std::size_t index) {
  return 2008u + 101u * static_cast<std::uint64_t>(index);
}

/// SplitMix64 finalizer: spreads consecutive run seeds.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

TenantInput Tenant(const std::string& name, char group, std::size_t machines,
                   std::size_t partners, int train_days, std::size_t index,
                   std::uint64_t run_seed) {
  TenantInput t;
  t.name = name;
  t.group = group;
  t.machines = machines;
  t.partners = partners;
  t.train_days = train_days;
  t.seed = TraceSeed(index);
  t.offset_draw = Mix(run_seed * 31u + index);
  return t;
}

/// Rows each tenant streams per block.
std::size_t RowsPerBlock(const Workload& w, int seconds) {
  const auto s = static_cast<std::size_t>(std::max(1, seconds));
  if (w.name == "ingest_trained") return 200 * s;
  if (w.name == "two_tenant_checkpoint") return 30 * s;
  return 30;  // self-test
}

void Size(Workload& w, std::size_t rows_per_block) {
  for (TenantInput& t : w.tenants) {
    t.blocks.assign(w.blocks, std::vector<SampleRow>(rows_per_block));
  }
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return values[idx];
}

MeasurementFrame TenantInput::TrainingFrame() const {
  return frame.SliceByTime(frame.StartTime(),
                           frame.StartTime() + train_days * kDay);
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      int seconds) {
  Workload w;
  w.name = name;
  if (name == "ingest_trained") {
    w.tenants.push_back(Tenant("A", 'A', 8, 8, 5, 0, seed));
  } else if (name == "two_tenant_checkpoint") {
    w.checkpoint_every = 200;
    w.tenants.push_back(Tenant("A", 'A', 6, 8, 5, 0, seed));
    w.tenants.push_back(Tenant("B", 'B', 6, 8, 5, 1, seed));
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  Size(w, RowsPerBlock(w, seconds));
  return w;
}

Workload MakeSelfTestWorkload(std::uint64_t seed) {
  Workload w;
  w.name = "selftest";
  w.blocks = 2;
  w.query_every = 10;
  w.tenants.push_back(Tenant("T", 'A', 6, 2, 2, 0, seed));
  Size(w, RowsPerBlock(w, 1));
  return w;
}

void MakeInputs(Workload& workload) {
  for (TenantInput& t : workload.tenants) {
    pmcorr::ScenarioConfig config;
    config.machine_count = t.machines;
    config.trace_days = t.train_days;
    config.seed = t.seed;
    const pmcorr::PaperScenario scenario =
        pmcorr::MakeGroupScenario(t.group, config);
    pmcorr::WriteFrameCsv(pmcorr::GenerateTrace(scenario.spec), t.CsvPath());
    t.frame = pmcorr::ReadFrameCsv(t.CsvPath());

    const std::size_t trained = t.TrainingFrame().SampleCount();
    // The run seed only picks where in the training days the replay
    // starts. Row i carries the timestamp of sample trained + i, so the
    // stream continues the training cadence without a gap.
    const std::size_t offset = static_cast<std::size_t>(t.offset_draw % trained);
    std::size_t i = 0;
    for (std::vector<SampleRow>& block : t.blocks) {
      for (SampleRow& row : block) {
        const std::size_t src = (offset + i) % trained;
        row.time = t.frame.TimeAt(0) +
                   static_cast<pmcorr::TimePoint>(trained + i) *
                       t.frame.Period();
        row.values.resize(t.frame.MeasurementCount());
        for (std::size_t m = 0; m < row.values.size(); ++m) {
          row.values[m] = t.frame.Value(
              pmcorr::MeasurementId(static_cast<std::int32_t>(m)), src);
        }
        ++i;
      }
    }
  }
}

MeasurementFrame RowsAsFrame(const TenantInput& tenant,
                             const std::vector<SampleRow>& rows) {
  MeasurementFrame frame(rows.front().time, tenant.frame.Period());
  for (std::size_t m = 0; m < tenant.frame.MeasurementCount(); ++m) {
    std::vector<double> column(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      column[i] = rows[i].values[m];
    }
    frame.Add(tenant.frame.Infos()[m],
              pmcorr::TimeSeries(rows.front().time, tenant.frame.Period(),
                                 std::move(column)));
  }
  return frame;
}

}  // namespace perfbench
