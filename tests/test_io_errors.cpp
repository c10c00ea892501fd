// Regression tests for the hardened I/O boundaries: every malformed
// input class the fuzz harnesses cover — truncation, NaN/Inf fields,
// huge declared shapes, inconsistent redundancy — must produce a clean
// std::runtime_error, never a crash, an abort, or a giant allocation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint_records.h"
#include "common/rng.h"
#include "io/csv.h"
#include "io/model_io.h"
#include "io/monitor_io.h"

namespace pmcorr {
namespace {

PairModel TrainedModel() {
  Rng rng(7);
  std::vector<double> xs(500), ys(500);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double load =
        50.0 + 30.0 * std::sin(static_cast<double>(i) * 0.05) +
        rng.Normal(0.0, 1.0);
    xs[i] = load;
    ys[i] = 100.0 * load / (load + 40.0) + rng.Normal(0.0, 0.4);
  }
  ModelConfig config;
  config.partition.units = 25;
  config.partition.max_intervals = 6;
  config.forgetting = 0.99;
  return PairModel::Learn(xs, ys, config);
}

std::string SavedModelBytes() {
  std::ostringstream out;
  SavePairModel(TrainedModel(), out);
  return out.str();
}

ckpt::PairRecord SavedRecord() { return ckpt::PairRecord::Of(TrainedModel()); }

// Replaces the first occurrence of `from` in `text`.
std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "pattern not found: " << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

// Expects a std::runtime_error whose message names `reason`.
template <typename Load>
void ExpectRejected(Load load, const std::string& reason) {
  try {
    load();
    ADD_FAILURE() << "loaded; expected a rejection naming '" << reason << "'";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(reason), std::string::npos)
        << error.what();
  }
}

void ExpectLoadModelThrows(const std::string& bytes,
                           const std::string& reason = "") {
  std::istringstream in(bytes);
  ExpectRejected([&] { (void)LoadPairModel(in); }, reason);
}

void ExpectLoadModelThrows(const ckpt::PairRecord& record,
                           const std::string& reason) {
  ExpectLoadModelThrows(record.File(), reason);
}

// ---------------------------------------------------------------------
// LoadPairModel.

TEST(ModelIoErrors, ValidFileStillLoads) {
  std::istringstream in(SavedModelBytes());
  EXPECT_NO_THROW((void)LoadPairModel(in));
  // The record mirror encodes the same bytes, so every mutation below
  // differs from a loadable file in its one field only.
  EXPECT_EQ(SavedRecord().File(), SavedModelBytes());
}

TEST(ModelIoErrors, EveryTruncationFailsCleanly) {
  const std::string bytes = SavedModelBytes();
  // Every proper prefix is missing data (the declared sizes and the
  // redundant count total catch every cut), so each must throw, not
  // crash.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ExpectLoadModelThrows(bytes.substr(0, len));
  }
}

TEST(ModelIoErrors, TrailingBytesRejected) {
  ExpectLoadModelThrows(SavedModelBytes() + '\0');
}

TEST(ModelIoErrors, HugeDeclaredIntervalCountRejectedBeforeAllocation) {
  // 10^9 declared intervals would be 8 GB of edges; the loader must
  // refuse the count itself rather than attempt the allocation.
  std::string bytes(ckpt::kModelMagic);
  SavedRecord().EncodeHead(bytes);
  WireWriter(bytes).U32(1000000000u);
  ExpectLoadModelThrows(bytes, "declared interval count");
}

TEST(ModelIoErrors, HugeDeclaredGridShapeRejected) {
  // Both dimensions individually under the per-dimension cap, but the
  // product (cells^2 evidence doubles) would be enormous.
  ckpt::PairRecord record = SavedRecord();
  record.edges1.clear();
  for (int i = 0; i <= 1000; ++i) record.edges1.push_back(i);
  record.edges2 = record.edges1;
  record.rows.clear();
  record.observed = 0;
  record.prev_cell = ckpt::kNoCell;
  ExpectLoadModelThrows(record, "declared grid shape");
}

TEST(ModelIoErrors, NonFiniteFieldsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ckpt::PairRecord record = SavedRecord();
  record.r1 = nan;
  ExpectLoadModelThrows(record, "bad initial average widths");
  record = SavedRecord();
  record.edges1.front() = -inf;
  ExpectLoadModelThrows(record, "bad interval edge");
  record = SavedRecord();
  ASSERT_FALSE(record.rows.empty());
  record.rows.front().evidence.front() = nan;
  ExpectLoadModelThrows(record, "bad evidence entry");
}

TEST(ModelIoErrors, NonIncreasingEdgesRejected) {
  ckpt::PairRecord record = SavedRecord();
  record.edges1[1] = record.edges1[0];  // zero-width
  ExpectLoadModelThrows(record, "non-increasing edges");
  record = SavedRecord();
  record.edges1[1] = record.edges1[0] - 1.0;  // decreasing
  ExpectLoadModelThrows(record, "non-increasing edges");
}

TEST(ModelIoErrors, OutOfRangeParamsRejected) {
  ckpt::PairRecord record = SavedRecord();
  record.lambda1 = -1.0;
  ExpectLoadModelThrows(record, "params out of range");
  record = SavedRecord();
  record.forgetting = 2.0;
  ExpectLoadModelThrows(record, "params out of range");
  record = SavedRecord();
  record.adaptive = 2;
  ExpectLoadModelThrows(record, "params out of range");
}

TEST(ModelIoErrors, UnknownKernelAndMetricRejected) {
  ckpt::PairRecord record = SavedRecord();
  record.kernel = 9;
  ExpectLoadModelThrows(record, "unknown kernel type");
  record = SavedRecord();
  record.metric = 7;
  ExpectLoadModelThrows(record, "unknown cell metric");
  // Exponential kernels additionally need w > 1.
  record = SavedRecord();
  record.kernel = 1;
  record.w = 0.5;
  ExpectLoadModelThrows(record, "exponential kernel needs w > 1");
}

TEST(ModelIoErrors, PositiveEvidenceRejected) {
  ckpt::PairRecord record = SavedRecord();
  ASSERT_FALSE(record.rows.empty());
  record.rows.front().evidence.back() = 0.25;
  ExpectLoadModelThrows(record, "bad evidence entry");
}

TEST(ModelIoErrors, CountSumMismatchRejected) {
  // Bump the declared observed total: the counts no longer sum to it,
  // and the loader must notice rather than restore corrupt state.
  ckpt::PairRecord record = SavedRecord();
  record.observed += 9;
  ExpectLoadModelThrows(record, "counts sum to");
  // Or drop one count: same mismatch from the other side.
  record = SavedRecord();
  for (ckpt::RowRecord& row : record.rows) {
    if (!row.counts.empty()) {
      row.counts.pop_back();
      break;
    }
  }
  ExpectLoadModelThrows(record, "counts sum to");
}

TEST(ModelIoErrors, RowIndexOutOfRangeRejected) {
  ckpt::PairRecord record = SavedRecord();
  record.rows.back().index = static_cast<std::uint32_t>(record.Cells());
  ExpectLoadModelThrows(record, "row index");
}

TEST(ModelIoErrors, RowIndicesNotStrictlyIncreasingRejected) {
  ckpt::PairRecord record = SavedRecord();
  ASSERT_GE(record.rows.size(), 2u);
  std::swap(record.rows[0], record.rows[1]);
  ExpectLoadModelThrows(record, "row index");
  record = SavedRecord();
  record.rows[1].index = record.rows[0].index;  // duplicate
  ExpectLoadModelThrows(record, "row index");
}

TEST(ModelIoErrors, CountColumnOutOfRangeRejected) {
  ckpt::PairRecord record = SavedRecord();
  for (ckpt::RowRecord& row : record.rows) {
    if (!row.counts.empty()) {
      row.counts.back().first = static_cast<std::uint32_t>(record.Cells());
      break;
    }
  }
  ExpectLoadModelThrows(record, "count column");
}

TEST(ModelIoErrors, CountColumnsNotStrictlyIncreasingRejected) {
  ckpt::PairRecord record = SavedRecord();
  bool mutated = false;
  for (ckpt::RowRecord& row : record.rows) {
    if (row.counts.size() >= 2) {
      row.counts[1].first = row.counts[0].first;  // duplicate column
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectLoadModelThrows(record, "count column");
}

// The loader accepts exactly the encoder's canonical form: listed
// counts are non-zero and every stored row holds some state.
TEST(ModelIoErrors, ListedZeroCountRejected) {
  ckpt::PairRecord record = SavedRecord();
  for (ckpt::RowRecord& row : record.rows) {
    if (!row.counts.empty()) {
      record.observed -= row.counts.back().second;
      row.counts.back().second = 0;
      break;
    }
  }
  ExpectLoadModelThrows(record, "zero count listed");
}

TEST(ModelIoErrors, StoredRowWithoutStateRejected) {
  ckpt::PairRecord record = SavedRecord();
  // The first row index the record leaves out (rows are sorted).
  std::uint32_t empty = 0;
  while (empty < record.rows.size() && record.rows[empty].index == empty) {
    ++empty;
  }
  ASSERT_LT(empty, record.Cells()) << "every row holds state";
  ckpt::RowRecord blank;
  blank.index = empty;
  blank.evidence.assign(record.Cells(), 0.0);
  record.rows.insert(record.rows.begin() + empty, blank);
  ExpectLoadModelThrows(record, "holds no state");
}

TEST(ModelIoErrors, PreviousCellOutsideGridRejected) {
  ckpt::PairRecord record = SavedRecord();
  record.prev_cell = static_cast<std::uint32_t>(record.Cells());
  ExpectLoadModelThrows(record, "previous cell");
}

// ---------------------------------------------------------------------
// LoadSystemMonitor.

MeasurementFrame TwoSeriesFrame(std::size_t samples) {
  MeasurementFrame frame(0, 60);
  for (int c = 0; c < 2; ++c) {
    std::vector<double> values(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      values[i] = 50.0 + 20.0 * std::sin(0.05 * static_cast<double>(i) + c);
    }
    MeasurementInfo info;
    info.machine = MachineId(c);
    info.name = "cpu@" + std::to_string(c);
    frame.Add(info, TimeSeries(0, 60, std::move(values)));
  }
  return frame;
}

std::unique_ptr<SystemMonitor> SavedMonitor() {
  MonitorConfig config;
  config.model.partition.units = 20;
  config.model.partition.max_intervals = 5;
  config.threads = 1;
  auto monitor = std::make_unique<SystemMonitor>(
      TwoSeriesFrame(300), MeasurementGraph::FullMesh(2), config);
  monitor->Run(TwoSeriesFrame(20));
  return monitor;
}

ckpt::MonitorRecord SavedMonitorRecord() {
  return ckpt::MonitorRecord::Of(*SavedMonitor());
}

void ExpectLoadMonitorThrows(const std::string& bytes,
                             const std::string& reason) {
  std::istringstream in(bytes);
  ExpectRejected([&] { (void)LoadSystemMonitor(in); }, reason);
}

TEST(MonitorIoErrors, ValidCheckpointStillLoads) {
  std::ostringstream saved;
  SaveSystemMonitor(*SavedMonitor(), saved);
  EXPECT_EQ(SavedMonitorRecord().Encode(), saved.str());
  std::istringstream in(saved.str());
  EXPECT_NO_THROW((void)LoadSystemMonitor(in));
}

TEST(MonitorIoErrors, HugeDeclaredCountsRejected) {
  std::string measurements(ckpt::kMonitorMagic);
  WireWriter(measurements).U32(0xFFFFFFFFu);
  ExpectLoadMonitorThrows(measurements, "declared measurement count");
  std::string pairs(ckpt::kMonitorMagic);
  WireWriter(pairs).U32(0);
  WireWriter(pairs).U32(0xFFFFFFFFu);
  ExpectLoadMonitorThrows(pairs, "declared pair count");
}

TEST(MonitorIoErrors, CorruptPairListRejectedAsRuntimeError) {
  // Fuzzer find: self-pairs / out-of-range pairs used to escape as
  // std::invalid_argument from MeasurementGraph::FromPairs, breaking
  // the loader's "malformed input => std::runtime_error" contract.
  // Fully well-formed checkpoints except for the second pair: the
  // loader reaches graph construction and must translate its
  // rejection, not leak it.
  ckpt::MonitorRecord record = SavedMonitorRecord();
  ASSERT_EQ(record.pairs.size(), 1u);
  record.pairs.push_back(record.pairs.front());
  record.models.push_back(record.models.front());
  for (const auto& bad : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {0, 0}, {0, 7}, {0xFFFFFFFDu, 1}, {1, 0}}) {
    record.pairs[1] = bad;
    ExpectLoadMonitorThrows(record.Encode(), "LoadSystemMonitor: ");
  }
}

TEST(MonitorIoErrors, UnknownMetricKindRejected) {
  ckpt::MonitorRecord record = SavedMonitorRecord();
  record.infos[0].kind = 250;
  ExpectLoadMonitorThrows(record.Encode(), "unknown metric kind");
}

TEST(MonitorIoErrors, NonFiniteAggregatesRejected) {
  ckpt::MonitorRecord record = SavedMonitorRecord();
  record.system_sum = std::numeric_limits<double>::infinity();
  ExpectLoadMonitorThrows(record.Encode(), "bad aggregates");
}

TEST(MonitorIoErrors, AveragerCountBeyondStepsRejected) {
  ckpt::MonitorRecord record = SavedMonitorRecord();
  record.averages[1].second = record.steps + 1;
  ExpectLoadMonitorThrows(record.Encode(), "bad averager");
}

TEST(MonitorIoErrors, BadStreamClockRejected) {
  ckpt::MonitorRecord record = SavedMonitorRecord();
  record.period = -60;
  ExpectLoadMonitorThrows(record.Encode(), "bad stream clock");
  record = SavedMonitorRecord();
  record.has_last = 2;
  ExpectLoadMonitorThrows(record.Encode(), "bad stream clock");
}

TEST(MonitorIoErrors, TextCheckpointFailsOnMagic) {
  // The retired text format: a daemon finding one cold-starts.
  ExpectLoadMonitorThrows("pmcorr-monitor v1\nmeasurements 0\npairs 0\n",
                          "bad magic");
}

// ---------------------------------------------------------------------
// ReadFrameCsv.

constexpr const char* kCsvHeader =
    "# pmcorr-trace v1 start=0 period=60\n"
    "# measurement,1,CpuUtilization,cpu@a\n"
    "# measurement,1,RequestRate,req@a\n"
    "time,cpu@a,req@a\n";

TEST(CsvErrors, ValidTraceLoadsThroughStreamOverload) {
  std::istringstream in(std::string(kCsvHeader) +
                        "0,50,10\n60,51,11\n120,nan,12\n");
  const MeasurementFrame frame = ReadFrameCsv(in);
  EXPECT_EQ(frame.MeasurementCount(), 2u);
  EXPECT_EQ(frame.SampleCount(), 3u);
  // NaN is the missing-sample marker and must survive the parse.
  EXPECT_TRUE(std::isnan(frame.Value(MeasurementId(0), 2)));
}

TEST(CsvErrors, InfinityRejected) {
  std::istringstream in(std::string(kCsvHeader) + "0,inf,10\n");
  EXPECT_THROW((void)ReadFrameCsv(in), std::runtime_error);
}

TEST(CsvErrors, RowWidthMismatchRejected) {
  std::istringstream in(std::string(kCsvHeader) + "0,50\n");
  EXPECT_THROW((void)ReadFrameCsv(in), std::runtime_error);
}

TEST(CsvErrors, TimestampOverflowRejected) {
  std::istringstream in(
      "# pmcorr-trace v1 start=9223372036854775000 period=1000\n"
      "# measurement,1,CpuUtilization,cpu@a\n"
      "time,cpu@a\n0,50\n1,51\n");
  EXPECT_THROW((void)ReadFrameCsv(in), std::runtime_error);
}

TEST(CsvErrors, NegativeStartAndBadPeriodRejected) {
  std::istringstream a(
      "# pmcorr-trace v1 start=-5 period=60\ntime\n");
  EXPECT_THROW((void)ReadFrameCsv(a), std::runtime_error);
  std::istringstream b(
      "# pmcorr-trace v1 start=0 period=0\ntime\n");
  EXPECT_THROW((void)ReadFrameCsv(b), std::runtime_error);
}

// ---------------------------------------------------------------------
// ReadSnapshotStreamJsonl.

std::vector<SystemSnapshot> SampleSnapshots() {
  std::vector<SystemSnapshot> snaps(3);
  Rng rng(23);
  for (std::size_t t = 0; t < snaps.size(); ++t) {
    SystemSnapshot& snap = snaps[t];
    snap.sample = t;
    snap.time = 1700000000 + static_cast<TimePoint>(60 * t);
    snap.pair_scores.resize(4);
    snap.measurement_scores.resize(3);
    for (auto& score : snap.pair_scores) {
      if (rng.Uniform() < 0.8) score = rng.Uniform();
    }
    for (auto& score : snap.measurement_scores) {
      if (rng.Uniform() < 0.8) score = rng.Uniform();
    }
    if (t > 0) snap.system_score = rng.Uniform();
    if (t == 2) snap.alarmed_pairs = {1, 3};
    snap.outlier_pairs = t;
    snap.extended_pairs = 0;
  }
  return snaps;
}

TEST(JsonlErrors, StreamRoundTripsBitExactly) {
  const std::vector<SystemSnapshot> original = SampleSnapshots();
  std::stringstream stream;
  WriteSnapshotStreamJsonl(original, stream);
  const std::vector<SystemSnapshot> loaded =
      ReadSnapshotStreamJsonl(stream);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t t = 0; t < original.size(); ++t) {
    EXPECT_EQ(loaded[t].sample, original[t].sample);
    EXPECT_EQ(loaded[t].time, original[t].time);
    EXPECT_EQ(loaded[t].system_score, original[t].system_score);
    EXPECT_EQ(loaded[t].pair_scores, original[t].pair_scores);
    EXPECT_EQ(loaded[t].measurement_scores,
              original[t].measurement_scores);
    EXPECT_EQ(loaded[t].alarmed_pairs, original[t].alarmed_pairs);
    EXPECT_EQ(loaded[t].outlier_pairs, original[t].outlier_pairs);
    EXPECT_EQ(loaded[t].extended_pairs, original[t].extended_pairs);
  }
}

void ExpectJsonlThrows(const std::string& text) {
  std::istringstream in(text);
  EXPECT_THROW((void)ReadSnapshotStreamJsonl(in), std::runtime_error)
      << text;
}

TEST(JsonlErrors, MalformedLinesRejected) {
  const std::string good =
      "{\"sample\":0,\"t\":100,\"q\":null,\"qa\":[null],"
      "\"pair_scores\":[0.5,null],\"alarmed\":[],\"outliers\":0,"
      "\"extended\":0}\n";
  {
    std::istringstream in(good);
    EXPECT_NO_THROW((void)ReadSnapshotStreamJsonl(in));
  }
  ExpectJsonlThrows("not json\n");
  ExpectJsonlThrows(Replace(good, "\"q\":null", "\"q\":1e999"));  // inf
  ExpectJsonlThrows(Replace(good, "\"q\":null", "\"q\":nan"));
  ExpectJsonlThrows(Replace(good, "\"alarmed\":[]", "\"alarmed\":[5]"));
  ExpectJsonlThrows(Replace(good, "\"alarmed\":[]", "\"alarmed\":[1,1]"));
  ExpectJsonlThrows(Replace(good, "\"outliers\":0", "\"outliers\":3"));
  ExpectJsonlThrows(Replace(good, "}\n", "}trailing\n"));
  ExpectJsonlThrows(Replace(good, "\"sample\"", "\"Sample\""));
  // Array width changing mid-stream.
  ExpectJsonlThrows(good + Replace(good, "[0.5,null]", "[0.5]"));
  // Truncations.
  for (std::size_t len = 1; len + 1 < good.size(); len += 7) {
    ExpectJsonlThrows(good.substr(0, len) + "\n");
  }
}

TEST(JsonlErrors, NanScoreTextRejected) {
  // from_chars accepts "nan"/"inf" spellings; the reader must still
  // refuse them (JSON has no such numbers, and scores must be finite).
  ExpectJsonlThrows(
      "{\"sample\":0,\"t\":1,\"q\":null,\"qa\":[nan],"
      "\"pair_scores\":[],\"alarmed\":[],\"outliers\":0,"
      "\"extended\":0}\n");
}

}  // namespace
}  // namespace pmcorr
