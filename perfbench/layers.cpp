// The traced run: the same rows replayed on this thread through each
// layer's public calls, one span per call, so every layer gets its own
// number. Nothing here runs concurrently with the daemon session.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "engine/health.h"
#include "engine/measurement_graph.h"
#include "engine/monitor.h"
#include "io/framing.h"
#include "io/monitor_io.h"
#include "serve/server.h"

namespace perfbench {

using namespace pmcorr;

int Tracer::Begin(const char* name) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back({name, ns, ns, open_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::End(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - origin_)
                    .count();
  open_ = span.parent;
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> ms;
  for (const Span& s : spans_) {
    if (name == s.name) {
      ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return ms;
}

void Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

namespace {

std::unique_ptr<SystemMonitor> BuildMonitor(const TenantInput& t) {
  const MeasurementFrame train = t.TrainingFrame();
  MonitorConfig config;
  config.threads = 1;
  return std::make_unique<SystemMonitor>(
      train, MeasurementGraph::Neighborhood(train, t.partners, 7), config);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::move(buf).str();
}

Frame QueryFrame(QueryKind kind, std::uint32_t arg) {
  QueryRequest q;
  q.kind = kind;
  q.arg = arg;
  Frame f;
  f.type = kFrameQuery;
  EncodeQueryRequest(q, f.payload);
  return f;
}

struct Counts {
  std::size_t rows = 0;
  std::uint64_t extended = 0;
  std::uint64_t outliers = 0;
  std::uint64_t bytes = 0;
};

/// io/framing + serve/protocol: the bytes of every row frame fed to a
/// FrameReader and decoded, as the daemon's socket loop does.
void ReplayWire(const std::vector<SampleRow>& rows, Tracer& tracer,
                Verdict& v) {
  std::vector<std::string> wire(rows.size());
  std::string payload;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    payload.clear();
    EncodeSampleRow(rows[i], payload);
    AppendFrame(kFrameSample, payload, wire[i]);
  }
  FrameReader reader;
  SampleRow row;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    {
      const Tracer::Scope s(&tracer, "wire.decode");
      reader.Feed(wire[i]);
      const std::optional<Frame> frame = reader.Next();
      if (frame) DecodeSampleRowInto(frame->payload, row);
    }
    if (row.time != rows[i].time ||
        std::memcmp(row.values.data(), rows[i].values.data(),
                    row.values.size() * sizeof(double)) != 0) {
      ++mismatched;
    }
  }
  if (mismatched > 0) {
    v.problems.push_back("traced-run: " + std::to_string(mismatched) +
                         " rows did not survive the wire round trip");
  }
}

/// engine · IngestGuard::Filter over the rows; returns the filtered rows
/// and which of them broke the transition sequence.
void ReplayGuard(const TenantInput& t, const std::vector<SampleRow>& rows,
                 Tracer& tracer, std::vector<std::vector<double>>& filtered,
                 std::vector<std::uint8_t>& breaks) {
  HealthConfig health;
  health.expected_period = t.frame.Period();
  IngestGuard guard(t.frame.MeasurementCount(), health);
  filtered.resize(rows.size());
  breaks.assign(rows.size(), 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    filtered[i] = rows[i].values;
    const Tracer::Scope s(&tracer, "engine.guard");
    breaks[i] = guard.Filter(filtered[i], rows[i].time).sequence_break;
  }
}

/// core · PairModel::Step over copies of every pair model, fed the
/// guard-filtered rows, one span per row.
void ReplayPairSweep(const SystemMonitor& monitor,
                     const std::vector<std::vector<double>>& filtered,
                     const std::vector<std::uint8_t>& breaks, Tracer& tracer) {
  const MeasurementGraph& graph = monitor.Graph();
  std::vector<PairModel> models;
  models.reserve(graph.PairCount());
  for (std::size_t p = 0; p < graph.PairCount(); ++p) {
    models.push_back(monitor.Model(p));
  }
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    if (breaks[i] != 0) {
      for (PairModel& m : models) m.ResetSequence();
    }
    const std::vector<double>& row = filtered[i];
    const Tracer::Scope s(&tracer, "core.pair_sweep");
    for (std::size_t p = 0; p < models.size(); ++p) {
      const PairId& pair = graph.Pair(p);
      models[p].Step(row[static_cast<std::size_t>(pair.a.value)],
                     row[static_cast<std::size_t>(pair.b.value)]);
    }
  }
}

void ReplayCheckpoint(const SystemMonitor& monitor, const TenantInput& t,
                      std::uint64_t sealed_bytes, Tracer& tracer,
                      Counts& counts, Verdict& v) {
  std::string rendered;
  {
    std::ostringstream out;
    {
      const Tracer::Scope s(&tracer, "checkpoint.serialize");
      SaveSystemMonitor(monitor, out);
    }
    rendered = std::move(out).str();
  }
  counts.bytes += rendered.size();
  const std::string own = "traced_" + t.name + ".ckpt";
  {
    const Tracer::Scope s(&tracer, "checkpoint.save");
    SaveSystemMonitor(monitor, own, CheckpointConfig{});
  }
  std::filesystem::remove(own);

  // The daemon sealed the same state: its file less the CRC trailer is
  // exactly what was rendered here.
  const std::string sealed = ReadFile(t.SealPath(0));
  std::string_view covered;
  {
    const Tracer::Scope s(&tracer, "restore.verify");
    covered = VerifyCheckpointTrailer(sealed);
  }
  if (sealed.size() != sealed_bytes || covered != rendered) {
    v.problems.push_back(
        "traced-run: checkpoint of " + t.name + " renders " +
        std::to_string(rendered.size()) + " bytes, the daemon sealed " +
        std::to_string(covered.size()) + " before its trailer");
  }
}

/// engine · SystemMonitor::Step per row. After block 0 the monitor is
/// in the state the daemon sealed at its first drain, so the checkpoint
/// is taken there: rendered to a stream, then through the path save
/// (rotation, CRC trailer, temp + fsync + rename), and compared with
/// the daemon's file.
void ReplayStepAndCheckpoint(const TenantInput& t,
                             const std::vector<SampleRow>& rows,
                             std::uint64_t sealed_bytes, Tracer& tracer,
                             Counts& counts, Verdict& v) {
  std::unique_ptr<SystemMonitor> monitor = BuildMonitor(t);
  {
    std::vector<std::vector<double>> filtered;
    std::vector<std::uint8_t> breaks;
    ReplayGuard(t, rows, tracer, filtered, breaks);
    ReplayPairSweep(*monitor, filtered, breaks, tracer);
  }
  SystemSnapshot snap;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    {
      const Tracer::Scope s(&tracer, "engine.step");
      monitor->Step(rows[i].values, rows[i].time, snap);
    }
    counts.extended += snap.extended_pairs;
    counts.outliers += snap.outlier_pairs;
    if (i + 1 == t.blocks.front().size()) {
      ReplayCheckpoint(*monitor, t, sealed_bytes, tracer, counts, v);
    }
  }
}

/// serve · ServeSession::HandleFrame on the sample and query frames,
/// and TenantRuntime::Pump(1) (step + publish) in manual mode.
void ReplayServe(const Workload& w, const TenantInput& t,
                 const std::vector<SampleRow>& rows, Tracer& tracer,
                 Verdict& v) {
  ServeCore core;
  TenantConfig config;
  config.name = t.name;
  config.queue_budget = kQueueBudget;
  config.threaded = false;
  core.AddTenant(std::move(config), BuildMonitor(t));
  ServeSession session(core);
  std::string out;
  Frame hello;
  hello.type = kFrameHello;
  HelloRequest request;
  request.tenant = t.name;
  EncodeHelloRequest(request, hello.payload);
  bool ok = session.HandleFrame(hello, out);

  Frame sample;
  sample.type = kFrameSample;
  const std::size_t half = w.query_every / 2;
  std::uint32_t drilldowns = 0;
  for (std::size_t i = 0; i < rows.size() && ok; ++i) {
    sample.payload.clear();
    EncodeSampleRow(rows[i], sample.payload);
    out.clear();
    {
      const Tracer::Scope s(&tracer, "serve.admit");
      ok = session.HandleFrame(sample, out);
    }
    {
      const Tracer::Scope s(&tracer, "serve.pump");
      core.Tenant(0).Pump(1);
    }
    const std::size_t sent = i + 1;
    if (sent % w.query_every == 0) {
      const Frame q = QueryFrame(QueryKind::kSummary, 0);
      out.clear();
      const Tracer::Scope s(&tracer, "query.summary");
      ok = ok && session.HandleFrame(q, out);
    } else if (sent % w.query_every == half) {
      const Frame q = QueryFrame(
          QueryKind::kDrilldown,
          static_cast<std::uint32_t>(drilldowns++ % t.frame.MeasurementCount()));
      out.clear();
      const Tracer::Scope s(&tracer, "query.drilldown");
      ok = ok && session.HandleFrame(q, out);
    }
  }
  const TenantStatus status = core.Tenant(0).Status();
  if (!ok || status.counters.processed != rows.size()) {
    v.problems.push_back("traced-run: the manual-mode tenant processed " +
                         std::to_string(status.counters.processed) + " of " +
                         std::to_string(rows.size()) + " rows");
  }
}

}  // namespace

std::vector<LayerMetric> ReplayLayers(const Workload& w,
                                      const std::vector<std::uint64_t>& sealed,
                                      Tracer& tracer, Verdict& v) {
  Counts counts;
  for (std::size_t i = 0; i < w.tenants.size(); ++i) {
    const TenantInput& t = w.tenants[i];
    std::vector<SampleRow> rows;
    for (const std::vector<SampleRow>& block : t.blocks) {
      rows.insert(rows.end(), block.begin(), block.end());
    }
    const Tracer::Scope span(&tracer, "tenant");
    counts.rows += rows.size();
    ReplayWire(rows, tracer, v);
    ReplayStepAndCheckpoint(t, rows, sealed[i], tracer, counts, v);
    ReplayServe(w, t, rows, tracer, v);
  }
  const double rows = static_cast<double>(counts.rows);
  auto per_row_us = [&](const char* span) {
    return tracer.TotalSeconds(span) * 1e6 / rows;
  };
  auto per_row_ms = [&](const char* span) {
    return tracer.TotalSeconds(span) * 1e3 / rows;
  };
  auto p_ms = [&](const char* span, double q) {
    return Quantile(tracer.DurationsMs(span), q);
  };
  return {
      {"setup.csv_read_s", "s", tracer.TotalSeconds("setup.csv_read")},
      {"setup.graph_s", "s", tracer.TotalSeconds("setup.graph")},
      {"setup.learn_s", "s", tracer.TotalSeconds("setup.learn")},
      {"wire.decode_us_per_row", "us", per_row_us("wire.decode")},
      {"serve.admit_us_per_row", "us", per_row_us("serve.admit")},
      {"serve.pump_ms_p50", "ms", p_ms("serve.pump", 0.50)},
      {"engine.guard_us_per_row", "us", per_row_us("engine.guard")},
      {"engine.step_ms_p50", "ms", p_ms("engine.step", 0.50)},
      {"engine.step_ms_p99", "ms", p_ms("engine.step", 0.99)},
      {"core.pair_step_ms_per_row", "ms", per_row_ms("core.pair_sweep")},
      {"engine.run_ms_per_row", "ms", per_row_ms("engine.run")},
      {"grid.extended_pairs", "count", static_cast<double>(counts.extended)},
      {"grid.outlier_pairs", "count", static_cast<double>(counts.outliers)},
      {"query.summary_us", "us", p_ms("query.summary", 0.50) * 1e3},
      {"query.drilldown_us", "us", p_ms("query.drilldown", 0.50) * 1e3},
      {"checkpoint.serialize_s", "s", tracer.TotalSeconds("checkpoint.serialize")},
      {"checkpoint.write_s", "s",
       tracer.TotalSeconds("checkpoint.save") -
           tracer.TotalSeconds("checkpoint.serialize")},
      {"checkpoint.bytes", "bytes", static_cast<double>(counts.bytes)},
      {"restore.verify_s", "s", tracer.TotalSeconds("restore.verify")},
      {"restore.load_s", "s", tracer.TotalSeconds("restore.load")},
  };
}

}  // namespace perfbench
