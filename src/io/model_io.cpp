#include "io/model_io.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string_view>

#include "common/check.h"
#include "io/atomic_file.h"

namespace pmcorr {
namespace {

constexpr std::string_view kMagic = "pmcorr-model v2\n";

// prev_cell of a record whose model has no previous cell.
constexpr std::uint32_t kNoPreviousCell = 0xFFFFFFFFu;

// Upper bounds on declared sizes. A corrupt or hostile file can claim any
// shape it likes; these caps reject it before the loader allocates. Real
// grids hold tens of intervals per dimension (the partitioner targets
// O(sqrt(history)) cells), so the caps leave two orders of magnitude of
// headroom while bounding the evidence block (cells^2 doubles) at 128 MiB.
constexpr std::size_t kMaxIntervalsPerDim = 1024;
constexpr std::size_t kMaxGridCells = 4096;

[[noreturn]] void Reject(const std::string& what) {
  throw std::runtime_error("LoadPairModel: " + what);
}

void WriteIntervals(WireWriter& out, const IntervalList& list) {
  out.U32(static_cast<std::uint32_t>(list.Size()));
  for (std::size_t i = 0; i < list.Size(); ++i) out.F64(list.At(i).lo);
  out.F64(list.At(list.Size() - 1).hi);
}

IntervalList ReadIntervals(WireReader& in) {
  const std::uint32_t n = in.U32();
  if (n == 0) Reject("empty interval list");
  if (n > kMaxIntervalsPerDim) {
    Reject("declared interval count " + std::to_string(n) +
           " exceeds limit");
  }
  std::vector<double> edges(n + 1);
  in.F64s(edges);
  std::vector<Interval> intervals;
  intervals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(edges[i]) || !std::isfinite(edges[i + 1])) {
      Reject("bad interval edge");
    }
    // "!(b > a)" rather than "b <= a": NaN edges fail every comparison
    // and must not slip through (defense in depth behind the finiteness
    // check above).
    if (!(edges[i + 1] > edges[i])) Reject("non-increasing edges");
    intervals.push_back({edges[i], edges[i + 1]});
  }
  return IntervalList(std::move(intervals));
}

// A row holds state when some evidence double is not bitwise +0.0 or
// some count is non-zero; every other row is pure prior.
bool RowHoldsState(const double* evidence, const std::uint32_t* counts,
                   std::size_t cells) {
  for (std::size_t j = 0; j < cells; ++j) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &evidence[j], sizeof(bits));
    if ((bits | counts[j]) != 0) return true;
  }
  return false;
}

}  // namespace

void AppendPairModelRecord(const PairModel& model, std::string& out) {
  const ModelConfig& c = model.Config();
  WireWriter w(out);
  w.U8(static_cast<std::uint8_t>(c.kernel.type));
  w.F64(c.kernel.w);
  w.U8(static_cast<std::uint8_t>(c.kernel.metric));
  for (const double v : {c.lambda1, c.lambda2, c.delta,
                         c.fitness_alarm_threshold, c.forgetting,
                         c.likelihood_weight}) {
    w.F64(v);
  }
  w.U8(c.adaptive ? 1 : 0);
  w.F64(model.Grid().InitialAvgWidthDim1());
  w.F64(model.Grid().InitialAvgWidthDim2());
  WriteIntervals(w, model.Grid().Dim1());
  WriteIntervals(w, model.Grid().Dim2());

  const TransitionMatrix& m = model.Matrix();
  const std::size_t cells = m.CellCount();
  w.U64(m.ObservedCount());
  const std::optional<std::size_t> prev = model.PreviousCell();
  w.U32(prev ? static_cast<std::uint32_t>(*prev) : kNoPreviousCell);

  const double* evidence = m.Evidence().data();
  const std::uint32_t* counts = m.Counts().data();
  std::vector<std::uint32_t> rows;
  for (std::size_t i = 0; i < cells; ++i) {
    if (RowHoldsState(evidence + i * cells, counts + i * cells, cells)) {
      rows.push_back(static_cast<std::uint32_t>(i));
    }
  }
  w.U32(static_cast<std::uint32_t>(rows.size()));
  for (const std::uint32_t i : rows) {
    w.U32(i);
    w.F64s(std::span<const double>(evidence + i * cells, cells));
    const std::uint32_t* row_counts = counts + i * cells;
    std::uint32_t nonzero = 0;
    for (std::size_t j = 0; j < cells; ++j) nonzero += row_counts[j] != 0;
    w.U32(nonzero);
    for (std::size_t j = 0; j < cells; ++j) {
      if (row_counts[j] == 0) continue;
      w.U32(static_cast<std::uint32_t>(j));
      w.U32(row_counts[j]);
    }
  }
}

PairModel ReadPairModelRecord(WireReader& in) {
  ModelConfig config;
  const std::uint8_t kernel_type = in.U8();
  config.kernel.w = in.F64();
  const std::uint8_t metric = in.U8();
  if (kernel_type > static_cast<int>(KernelConfig::Type::kExponential)) {
    Reject("unknown kernel type");
  }
  if (metric > static_cast<int>(CellMetric::kEuclidean)) {
    Reject("unknown cell metric");
  }
  config.kernel.type = static_cast<KernelConfig::Type>(kernel_type);
  config.kernel.metric = static_cast<CellMetric>(metric);
  if (config.kernel.type == KernelConfig::Type::kExponential &&
      !(std::isfinite(config.kernel.w) && config.kernel.w > 1.0)) {
    Reject("exponential kernel needs w > 1");
  }

  config.lambda1 = in.F64();
  config.lambda2 = in.F64();
  config.delta = in.F64();
  config.fitness_alarm_threshold = in.F64();
  config.forgetting = in.F64();
  config.likelihood_weight = in.F64();
  const std::uint8_t adaptive = in.U8();
  // Mirror of PairModel::CheckInvariants's config clauses: written here
  // as load errors so hostile files fail in every build, not only under
  // PMCORR_AUDIT. All comparisons are NaN-rejecting.
  if (!(config.lambda1 >= 0.0 && config.lambda2 >= 0.0 &&
        std::isfinite(config.lambda1) && std::isfinite(config.lambda2) &&
        config.delta >= 0.0 && config.delta <= 1.0 &&
        config.fitness_alarm_threshold >= 0.0 &&
        config.fitness_alarm_threshold <= 1.0 && config.forgetting > 0.0 &&
        config.forgetting <= 1.0 && config.likelihood_weight > 0.0 &&
        std::isfinite(config.likelihood_weight) && adaptive <= 1)) {
    Reject("params out of range");
  }
  config.adaptive = adaptive != 0;

  const double r1 = in.F64();
  const double r2 = in.F64();
  if (!(std::isfinite(r1) && r1 > 0.0) || !(std::isfinite(r2) && r2 > 0.0)) {
    Reject("bad initial average widths");
  }
  IntervalList dim1 = ReadIntervals(in);
  IntervalList dim2 = ReadIntervals(in);
  Grid2D grid(std::move(dim1), std::move(dim2), r1, r2);
  const std::size_t cells = grid.CellCount();
  if (cells > kMaxGridCells) {
    Reject("declared grid shape " + std::to_string(grid.Rows()) + "x" +
           std::to_string(grid.Cols()) + " exceeds limit");
  }

  const std::uint64_t observed = in.U64();
  const std::uint32_t prev_cell = in.U32();
  if (prev_cell != kNoPreviousCell && prev_cell >= cells) {
    Reject("previous cell " + std::to_string(prev_cell) + " outside the " +
           std::to_string(cells) + "-cell grid");
  }

  const std::uint32_t row_count = in.U32();
  std::vector<double> evidence(cells * cells, 0.0);
  std::vector<std::uint32_t> counts(cells * cells, 0);
  std::uint64_t count_total = 0;
  std::size_t next_row = 0;
  for (std::uint32_t r = 0; r < row_count; ++r) {
    const std::uint32_t row = in.U32();
    if (row < next_row || row >= cells) {
      Reject("row index " + std::to_string(row) +
             " out of range or not increasing");
    }
    next_row = row + 1;
    const std::span<double> row_evidence(evidence.data() + row * cells,
                                         cells);
    in.F64s(row_evidence);
    for (const double e : row_evidence) {
      // Every evidence term is a forgetting-discounted sum of weighted
      // log-probabilities, so legitimate checkpoints never hold positive
      // or non-finite entries.
      if (!(std::isfinite(e) && e <= 0.0)) Reject("bad evidence entry");
    }
    std::uint32_t* row_counts = counts.data() + row * cells;
    const std::uint32_t nonzero = in.U32();
    std::size_t next_column = 0;
    for (std::uint32_t k = 0; k < nonzero; ++k) {
      const std::uint32_t column = in.U32();
      const std::uint32_t count = in.U32();
      if (column < next_column || column >= cells) {
        Reject("count column " + std::to_string(column) +
               " out of range or not increasing");
      }
      if (count == 0) Reject("zero count listed");
      next_column = column + 1;
      row_counts[column] = count;
      count_total += count;
    }
    if (!RowHoldsState(row_evidence.data(), row_counts, cells)) {
      Reject("stored row " + std::to_string(row) + " holds no state");
    }
  }
  if (count_total != observed) {
    Reject("counts sum to " + std::to_string(count_total) +
           ", header declares " + std::to_string(observed));
  }

  const auto kernel = MakeKernel(config.kernel);
  TransitionMatrix matrix = TransitionMatrix::FromState(
      grid, *kernel, std::move(evidence), std::move(counts), observed);
  PairModel model = PairModel::FromParts(
      config, std::move(grid), std::move(matrix),
      prev_cell == kNoPreviousCell
          ? std::nullopt
          : std::optional<std::size_t>(prev_cell));
  PMCORR_AUDIT_ONLY(model.CheckInvariants();)
  return model;
}

void SavePairModel(const PairModel& model, std::ostream& out) {
  std::string bytes(kMagic);
  AppendPairModelRecord(model, bytes);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("SavePairModel: write failed");
}

void SavePairModel(const PairModel& model, const std::string& path) {
  // Atomic replacement: a crash mid-save must not destroy the previous
  // model file (io/atomic_file.h).
  std::string bytes(kMagic);
  AppendPairModelRecord(model, bytes);
  AtomicWriteFile(path, bytes);
}

namespace {

PairModel DecodePairModel(std::string_view bytes) {
  WireReader in(bytes, "LoadPairModel");
  if (in.Remaining() < kMagic.size() || in.Bytes(kMagic.size()) != kMagic) {
    Reject("bad magic");
  }
  PairModel model = ReadPairModelRecord(in);
  in.ExpectEnd();
  return model;
}

}  // namespace

PairModel LoadPairModel(std::istream& in) {
  return DecodePairModel(ReadStreamBytes(in));
}

PairModel LoadPairModel(const std::string& path) {
  std::string bytes;
  if (!ReadFileBytes(path, bytes)) Reject("cannot open " + path);
  return DecodePairModel(bytes);
}

}  // namespace pmcorr
