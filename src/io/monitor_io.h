// SystemMonitor checkpointing: persist and restore a whole fleet of pair
// models plus the lifetime score aggregates, so a monitoring agent can
// restart without relearning from history (the paper's models take
// seconds to learn per pair; a production fleet carries hundreds).
//
// Binary, on the WireWriter/WireReader codec (io/framing.h), with no
// frames around it (one pair's evidence can exceed kMaxFramePayload):
//
//   body := "pmcorr-monitor v2\n"
//           | u32 measurements | measurements x (u32 machine | u8 kind
//             | u16-prefixed name)
//           | u32 pairs | pairs x (u32 a | u32 b)
//           | u64 steps | f64 system_sum | u64 system_count
//           | measurements x (f64 sum | u64 count)
//           | u8 has_last | i64 last_time | i64 period   (ingest guard)
//           | pairs x pair record (io/model_io.h)
//
// A file checkpoint is the body followed by a fixed 20-byte footer:
//   u64 body_length | u32 crc32(body) | "PMCRSEAL"
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/monitor.h"

namespace pmcorr {

/// Serializes the monitor body: measurement infos, graph edges, the
/// lifetime aggregates, the ingest guard's stream clock and the per-pair
/// records of model_io (each with its previous cell). Throws
/// std::runtime_error on I/O failure.
void SaveSystemMonitor(const SystemMonitor& monitor, std::ostream& out);

/// On-disk checkpoint policy: how many last-good generations to keep.
/// Generation 0 is `path` itself, generation g > 0 is `path.g<g>`; a
/// save rotates g -> g+1 (dropping the oldest) before atomically
/// writing the new generation 0.
struct CheckpointConfig {
  std::size_t generations = 2;
};

/// Crash-safe file checkpoint: renders the monitor body plus its CRC-32
/// footer, rotates the existing generations, and replaces `path`
/// via write-to-temp + fsync + atomic rename (io/atomic_file.h). A
/// crash at any point leaves at least one complete, validated prior
/// generation recoverable by the path-based loader below. Throws
/// std::runtime_error on I/O failure.
void SaveSystemMonitor(const SystemMonitor& monitor, const std::string& path,
                       const CheckpointConfig& config);
void SaveSystemMonitor(const SystemMonitor& monitor, const std::string& path);

/// How a path-based load found its checkpoint (all fields informational).
struct CheckpointRecoveryInfo {
  /// The file that loaded successfully.
  std::string loaded_path;
  /// Its generation number (0 = the primary file).
  std::size_t generation = 0;
  /// One "<path>: <reason>" entry per newer candidate that was rejected
  /// (missing, torn, CRC mismatch, failed validation) before the loaded
  /// one — non-empty means the primary copy was lost and recovery
  /// actually happened.
  std::vector<std::string> rejected;
};

/// Restores a monitor saved by SaveSystemMonitor (a stream rendering,
/// or a sealed file, whose footer is verified and stripped). The
/// restored monitor resumes where the saved one stopped: every pair
/// keeps its previous cell and the ingest guard its stream clock, so
/// the next on-cadence row scores as it would have without the restart
/// and a late one still breaks the sequences. Worker-thread count is
/// taken from `threads` (0 = hardware concurrency) since it is a property
/// of the host, not of the model state. Throws std::runtime_error on
/// malformed input, including bytes after the last pair record.
std::unique_ptr<SystemMonitor> LoadSystemMonitor(std::istream& in,
                                                 std::size_t threads = 0);

/// Path-based load with generation fallback: tries `path`, then
/// `path.g1`, `path.g2`, ... and returns the newest generation that
/// passes both the CRC footer check and full load-time validation. The
/// file is read once into a sized buffer and decoded in place. Files
/// without a footer (stream renderings) are accepted when they
/// validate; a text checkpoint of the old format fails on its magic.
/// Throws std::runtime_error only when every generation is missing or
/// corrupt (the message lists each rejection).
std::unique_ptr<SystemMonitor> LoadSystemMonitor(
    const std::string& path, std::size_t threads = 0,
    CheckpointRecoveryInfo* recovery = nullptr);

/// Verifies and strips the checkpoint's CRC footer, returning the body
/// it covers. Bytes that do not end in the footer magic are returned
/// unchanged (an unsealed stream rendering, or a truncated file whose
/// decode then fails); a present-but-wrong footer (bad CRC, a length
/// that disagrees with the body) throws std::runtime_error. Exposed for
/// the fuzz harness, which drives it on arbitrary bytes.
std::string_view VerifyCheckpointTrailer(std::string_view bytes);

/// Writes the full-detail snapshot stream as JSONL, one line per sample:
///   {"sample":N,"t":<unix>,"q":<Q|null>,"qa":[...],"pair_scores":[...],
///    "alarmed":[pair,...],"outliers":N,"extended":N}
/// Scores are printed with 17 significant digits (round-trip exact for
/// doubles), so the output is a byte-stable fingerprint of the engine's
/// arithmetic — this is the format of the golden-trace regression tests,
/// which is why it lives with the checkpoint code rather than the
/// dashboard-oriented summaries of io/jsonl.h.
void WriteSnapshotStreamJsonl(const std::vector<SystemSnapshot>& snapshots,
                              std::ostream& out);

/// Parses a stream written by WriteSnapshotStreamJsonl back into
/// snapshots (measurement scores are part of the stream, so the
/// round-trip is lossless and bit-exact). The parser is strict: it
/// accepts exactly the schema above — keys in order, no whitespace
/// padding — and throws std::runtime_error with a line number on any
/// deviation, including non-finite scores, alarmed indices out of range
/// or out of order, and score arrays whose width changes mid-stream.
std::vector<SystemSnapshot> ReadSnapshotStreamJsonl(std::istream& in);

/// Writes a SystemDelta stream as JSONL, one line per tick:
///   {"sample":N,"t":<unix>,"baseline":true|false,"pairs":P,
///    "measurements":M,"q":<Q|null>,"pair_changes":[[i,score],...],
///    "pair_disengaged":[i,...],"qa_changes":[[i,score],...],
///    "qa_disengaged":[i,...],"alarmed":[...],"outliers":N,
///    "extended":N,"event":E,"suppressed":N,"quarantined":N,
///    "health":true|false,"health_changes":[[i,h],...]}
/// Scores use 17 significant digits, so reconstructing the parsed
/// stream (DeltaReconstructor) is bitwise identical to reconstructing
/// the in-memory one. On a quiet tick every change list is empty and
/// the line is O(1) bytes regardless of pair count — that is the point
/// of the delta form.
void WriteDeltaStreamJsonl(const std::vector<SystemDelta>& deltas,
                           std::ostream& out);

/// Parses a stream written by WriteDeltaStreamJsonl. Strict like
/// ReadSnapshotStreamJsonl: exact key order, no padding; throws
/// std::runtime_error with a line number on any deviation, including
/// non-finite scores, unknown event/health codes, or change indices
/// outside the declared widths. Ordering/baseline discipline is the
/// reconstructor's job — this reader checks each line in isolation.
std::vector<SystemDelta> ReadDeltaStreamJsonl(std::istream& in);

}  // namespace pmcorr
