// PairModel persistence.
//
// A deployed monitor should survive restarts without relearning from
// history, so the full model state round-trips: config, both interval
// lists (with their initialization-time r_avg), the accumulated
// evidence, the empirical counts and the previous cell. Binary, on the
// WireWriter/WireReader codec (io/framing.h): every double is its
// IEEE-754 bit pattern, so the round trip is bitwise exact.
//
// The matrix is row-sparse. Row i changes only when cell i is visited,
// and a row never visited holds pure prior: zero evidence and zero
// counts. So a record lists only the rows whose evidence has some entry
// that is not bitwise +0.0, or whose counts are not all zero. Each such
// row gives its index, all s evidence doubles, and its non-zero counts
// as (column, count) pairs:
//
//   record := u8 kernel | f64 w | u8 metric
//             | f64 lambda1 lambda2 delta fitness_threshold forgetting
//               likelihood_weight | u8 adaptive
//             | f64 ravg1 ravg2
//             | u32 n1 | f64 edges[n1 + 1] | u32 n2 | f64 edges[n2 + 1]
//             | u64 observed | u32 prev_cell (0xFFFFFFFF = none)
//             | u32 rows | rows x row
//   row    := u32 index | f64 evidence[s] | u32 nonzero
//             | nonzero x (u32 column | u32 count)
//
// Row indices and count columns are strictly increasing. The loader
// fills the rows left out with +0.0 / 0.
#pragma once

#include <iosfwd>
#include <string>

#include "core/model.h"
#include "io/framing.h"

namespace pmcorr {

/// Serializes the model (file magic + record); throws
/// std::runtime_error on I/O failure.
void SavePairModel(const PairModel& model, std::ostream& out);
void SavePairModel(const PairModel& model, const std::string& path);

/// Restores a model saved by SavePairModel; throws std::runtime_error on
/// malformed input, including bytes after the record. The restored
/// model continues exactly where the saved one stopped: same grid,
/// posterior, counts and previous cell.
PairModel LoadPairModel(std::istream& in);
PairModel LoadPairModel(const std::string& path);

/// The bare record (no magic), as the monitor checkpoint embeds one per
/// pair (io/monitor_io.h).
void AppendPairModelRecord(const PairModel& model, std::string& out);
PairModel ReadPairModelRecord(WireReader& in);

}  // namespace pmcorr
