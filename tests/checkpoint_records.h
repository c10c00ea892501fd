// Field-by-field mirror of the binary checkpoint codec (io/model_io.h,
// io/monitor_io.h), written from the format description rather than from
// the production encoder. Tests capture a model or monitor in these
// records, change one field, and encode them, so each hostile input
// differs from a valid checkpoint in exactly the field under test.
// ModelIoErrors.ValidFileStillLoads and MonitorIoErrors.
// ValidCheckpointStillLoads (test_io_errors) pin the mirror to the real
// encoder byte for byte.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/monitor.h"
#include "io/framing.h"

namespace pmcorr::ckpt {

inline constexpr std::string_view kModelMagic = "pmcorr-model v2\n";
inline constexpr std::string_view kMonitorMagic = "pmcorr-monitor v2\n";
inline constexpr std::string_view kFooterMagic = "PMCRSEAL";
inline constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

struct RowRecord {
  std::uint32_t index = 0;
  std::vector<double> evidence;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> counts;
};

struct PairRecord {
  std::uint8_t kernel = 0;
  double w = 2.0;
  std::uint8_t metric = 2;
  double lambda1 = 3.0, lambda2 = 3.0, delta = 0.0, fitness = 0.0;
  double forgetting = 1.0, weight = 1.0;
  std::uint8_t adaptive = 1;
  double r1 = 1.0, r2 = 1.0;
  std::vector<double> edges1, edges2;
  std::uint64_t observed = 0;
  std::uint32_t prev_cell = kNoCell;
  std::vector<RowRecord> rows;

  std::size_t Cells() const {
    return (edges1.size() - 1) * (edges2.size() - 1);
  }

  static PairRecord Of(const PairModel& model) {
    PairRecord r;
    const ModelConfig& c = model.Config();
    r.kernel = static_cast<std::uint8_t>(c.kernel.type);
    r.w = c.kernel.w;
    r.metric = static_cast<std::uint8_t>(c.kernel.metric);
    r.lambda1 = c.lambda1;
    r.lambda2 = c.lambda2;
    r.delta = c.delta;
    r.fitness = c.fitness_alarm_threshold;
    r.forgetting = c.forgetting;
    r.weight = c.likelihood_weight;
    r.adaptive = c.adaptive ? 1 : 0;
    r.r1 = model.Grid().InitialAvgWidthDim1();
    r.r2 = model.Grid().InitialAvgWidthDim2();
    const auto edges_of = [](const IntervalList& dim) {
      std::vector<double> edges;
      for (std::size_t i = 0; i < dim.Size(); ++i) {
        edges.push_back(dim.At(i).lo);
      }
      edges.push_back(dim.At(dim.Size() - 1).hi);
      return edges;
    };
    r.edges1 = edges_of(model.Grid().Dim1());
    r.edges2 = edges_of(model.Grid().Dim2());
    const TransitionMatrix& m = model.Matrix();
    r.observed = m.ObservedCount();
    if (const auto prev = model.PreviousCell()) {
      r.prev_cell = static_cast<std::uint32_t>(*prev);
    }
    const std::size_t s = m.CellCount();
    for (std::size_t i = 0; i < s; ++i) {
      RowRecord row;
      row.index = static_cast<std::uint32_t>(i);
      bool stored = false;
      for (std::size_t j = 0; j < s; ++j) {
        const double e = m.Evidence()[i * s + j];
        const std::uint32_t n = m.Counts()[i * s + j];
        std::uint64_t bits = 0;
        std::memcpy(&bits, &e, sizeof(bits));
        stored = stored || bits != 0 || n != 0;
        row.evidence.push_back(e);
        if (n != 0) row.counts.emplace_back(static_cast<std::uint32_t>(j), n);
      }
      if (stored) r.rows.push_back(std::move(row));
    }
    return r;
  }

  /// Everything up to and including the two average widths.
  void EncodeHead(std::string& out) const {
    WireWriter w(out);
    w.U8(kernel);
    w.F64(this->w);
    w.U8(metric);
    for (const double v : {lambda1, lambda2, delta, fitness, forgetting,
                           weight}) {
      w.F64(v);
    }
    w.U8(adaptive);
    w.F64(r1);
    w.F64(r2);
  }

  void Encode(std::string& out) const {
    EncodeHead(out);
    WireWriter w(out);
    for (const auto* edges : {&edges1, &edges2}) {
      w.U32(static_cast<std::uint32_t>(edges->size() - 1));
      for (const double e : *edges) w.F64(e);
    }
    w.U64(observed);
    w.U32(prev_cell);
    w.U32(static_cast<std::uint32_t>(rows.size()));
    for (const RowRecord& row : rows) {
      w.U32(row.index);
      for (const double e : row.evidence) w.F64(e);
      w.U32(static_cast<std::uint32_t>(row.counts.size()));
      for (const auto& [column, count] : row.counts) {
        w.U32(column);
        w.U32(count);
      }
    }
  }

  /// A standalone model file: magic + record.
  std::string File() const {
    std::string out(kModelMagic);
    Encode(out);
    return out;
  }
};

struct MonitorRecord {
  struct Info {
    std::uint32_t machine = 0;
    std::uint8_t kind = 0;
    std::string name;
  };
  std::vector<Info> infos;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::uint64_t steps = 0;
  double system_sum = 0.0;
  std::uint64_t system_count = 0;
  std::vector<std::pair<double, std::uint64_t>> averages;
  std::uint8_t has_last = 0;
  std::int64_t last = 0;
  std::int64_t period = 0;
  std::vector<PairRecord> models;

  static MonitorRecord Of(const SystemMonitor& monitor) {
    MonitorRecord r;
    for (const MeasurementInfo& info : monitor.Infos()) {
      r.infos.push_back({static_cast<std::uint32_t>(info.machine.value),
                         static_cast<std::uint8_t>(info.kind), info.name});
    }
    for (const PairId& pair : monitor.Graph().Pairs()) {
      r.pairs.emplace_back(static_cast<std::uint32_t>(pair.a.value),
                           static_cast<std::uint32_t>(pair.b.value));
    }
    r.steps = monitor.StepCount();
    r.system_sum = monitor.SystemAverage().Sum();
    r.system_count = monitor.SystemAverage().Count();
    for (const ScoreAverager& avg : monitor.MeasurementAverages()) {
      r.averages.emplace_back(avg.Sum(), avg.Count());
    }
    const StreamClock clock = monitor.Health().Clock();
    r.has_last = clock.has_last ? 1 : 0;
    r.last = clock.last;
    r.period = clock.period;
    for (std::size_t i = 0; i < monitor.Graph().PairCount(); ++i) {
      r.models.push_back(PairRecord::Of(monitor.Model(i)));
    }
    return r;
  }

  std::string Encode() const {
    std::string out(kMonitorMagic);
    WireWriter w(out);
    w.U32(static_cast<std::uint32_t>(infos.size()));
    for (const Info& info : infos) {
      w.U32(info.machine);
      w.U8(info.kind);
      w.Str(info.name);
    }
    w.U32(static_cast<std::uint32_t>(pairs.size()));
    for (const auto& [a, b] : pairs) {
      w.U32(a);
      w.U32(b);
    }
    w.U64(steps);
    w.F64(system_sum);
    w.U64(system_count);
    for (const auto& [sum, count] : averages) {
      w.F64(sum);
      w.U64(count);
    }
    w.U8(has_last);
    w.I64(last);
    w.I64(period);
    for (const PairRecord& model : models) model.Encode(out);
    return out;
  }
};

/// The 20-byte footer a file checkpoint ends with: it claims `declared`
/// body bytes with CRC `crc`.
inline std::string Footer(std::uint64_t declared, std::uint32_t crc) {
  std::string out;
  WireWriter w(out);
  w.U64(declared);
  w.U32(crc);
  w.Bytes(kFooterMagic);
  return out;
}

}  // namespace pmcorr::ckpt
