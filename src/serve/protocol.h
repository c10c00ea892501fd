// The serve daemon's wire protocol: typed request/reply messages over
// the shared frame envelope of io/framing.h.
//
// Transport shape: a client connects to the daemon's unix socket, sends
// kFrameHello to bind the connection to one tenant, then streams
// kFrameSample rows and interleaves kFrameQuery requests. The server
// answers queries with the matching reply frame, pushes unsolicited
// kFrameBackpressure edges when the tenant's queue crosses its
// watermarks, and answers kFrameDrain (or SIGTERM) with kFrameDrained
// after every tenant checkpointed. Any malformed frame or protocol
// violation earns one kFrameError and the connection is closed — the
// strict-parser doctrine: a confused peer is disconnected, not guessed
// at.
//
// Every encoder/decoder here is a pure payload<->struct codec; decoders
// throw FramingError on any deviation. Both the server session
// (serve/server.h) and the replay client (tools/pmcorr_replay.cpp)
// speak only through these, so the two ends cannot drift apart.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/snapshot.h"
#include "io/csv.h"

namespace pmcorr {

/// Protocol revision carried in kFrameHello.
inline constexpr std::uint8_t kServeProtocolVersion = 1;

// Client -> server frame types.
inline constexpr std::uint8_t kFrameHello = 0x10;
inline constexpr std::uint8_t kFrameSample = 0x11;
inline constexpr std::uint8_t kFrameQuery = 0x12;
inline constexpr std::uint8_t kFrameDrain = 0x13;

// Server -> client frame types.
inline constexpr std::uint8_t kFrameHelloOk = 0x20;
inline constexpr std::uint8_t kFrameStatus = 0x21;
inline constexpr std::uint8_t kFrameSummary = 0x22;
inline constexpr std::uint8_t kFrameDrilldown = 0x23;
inline constexpr std::uint8_t kFrameBackpressure = 0x24;
inline constexpr std::uint8_t kFrameDrained = 0x25;
inline constexpr std::uint8_t kFrameError = 0x2F;

/// kFrameHello: bind this connection to one tenant.
struct HelloRequest {
  std::uint8_t version = kServeProtocolVersion;
  std::string tenant;
};

/// kFrameHelloOk: the binding's ground truth — the client can size its
/// rows and pace its clock from this.
struct HelloReply {
  std::uint32_t tenant_index = 0;
  std::uint32_t measurement_count = 0;
  /// The ingest guard's expected cadence (0 when the guard is off).
  std::int64_t expected_period = 0;
};

/// kFrameQuery: one of the three live query surfaces.
enum class QueryKind : std::uint8_t {
  /// Runtime counters: queue, shedding, checkpoints, backpressure.
  kStatus = 0,
  /// The published snapshot's fitness/health/alarm view (Q and Q^a).
  kSummary = 1,
  /// Q -> Q^a -> Q^{a,b}: every pair of measurement `arg` with its
  /// current score (the paper's localization walk).
  kDrilldown = 2,
};

struct QueryRequest {
  QueryKind kind = QueryKind::kStatus;
  /// kDrilldown: the measurement index. Unused otherwise.
  std::uint32_t arg = 0;
};

/// kFrameStatus: the tenant's operational counters. Field meanings
/// match TenantCounters (serve/tenant.h); the invariant the smoke test
/// asserts is submitted == accepted + shed_ticks + rejected, and after
/// a drain, processed == accepted.
struct StatusReply {
  std::uint8_t state = 0;  // TenantState
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed_ticks = 0;
  std::uint64_t rejected = 0;
  std::uint64_t processed = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t backpressure_raises = 0;
  std::uint64_t backpressure_clears = 0;
  std::uint64_t max_queue_rows = 0;
  std::uint64_t queue_rows = 0;
  std::uint64_t queue_budget = 0;
  std::uint64_t alarms_total = 0;
  std::uint64_t suppressed_total = 0;
  std::uint64_t quarantined_pairs = 0;
  std::uint64_t last_sample = 0;
  std::int64_t last_time = 0;
  std::optional<double> last_q;
  std::string last_error;
};

/// kFrameSummary: system + per-measurement level of the published
/// snapshot (Q, Q^a, feed health, this tick's alarmed pairs).
struct SummaryReply {
  bool has_snapshot = false;
  std::uint64_t sample = 0;
  std::int64_t time = 0;
  std::optional<double> system_score;
  std::vector<std::optional<double>> measurement_scores;
  /// Empty when the ingest guard is off.
  std::vector<MeasurementHealth> measurement_health;
  std::vector<std::uint32_t> alarmed_pairs;
};

/// One edge of a drill-down answer: pair `pair_index` = (a, b) with its
/// current Q^{a,b} (disengaged when has_score is false).
struct DrilldownPair {
  std::uint32_t pair_index = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  bool has_score = false;
  double score = 0.0;
  bool alarmed = false;
};

/// kFrameDrilldown: measurement `measurement`'s place in the fitness
/// hierarchy — Q above it, its own Q^a, and every incident pair below.
struct DrilldownReply {
  std::uint32_t measurement = 0;
  bool has_snapshot = false;
  std::uint64_t sample = 0;
  std::optional<double> system_score;
  std::optional<double> measurement_score;
  std::vector<DrilldownPair> pairs;
};

/// kFrameBackpressure: unsolicited queue-watermark edge for the bound
/// tenant. `engaged` raises at the high watermark, clears at the low
/// one; a well-behaved client throttles between the two.
struct BackpressureEvent {
  bool engaged = false;
  std::uint64_t queue_rows = 0;
};

/// One tenant's line of a kFrameDrained reply.
struct DrainedTenant {
  std::string name;
  std::uint8_t state = 0;  // TenantState
  std::uint64_t processed = 0;
  /// 0 = no checkpoint configured, 1 = sealed (written, or the state
  /// was already on disk), 2 = failed.
  std::uint8_t checkpoint = 0;
};

struct DrainedReply {
  std::vector<DrainedTenant> tenants;
};

// Payload codecs. Encoders append to `out`; decoders throw FramingError
// on malformed payloads (truncation, trailing bytes, out-of-range
// enums/counts).
void EncodeHelloRequest(const HelloRequest& msg, std::string& out);
HelloRequest DecodeHelloRequest(std::string_view payload);

void EncodeHelloReply(const HelloReply& msg, std::string& out);
HelloReply DecodeHelloReply(std::string_view payload);

/// kFrameSample payload: i64 time | u32 count | count x f64 (bitwise).
void EncodeSampleRow(const SampleRow& row, std::string& out);
/// Decodes into `row` reusing its values capacity — the per-row hot
/// path of the ingest loop.
void DecodeSampleRowInto(std::string_view payload, SampleRow& row);

void EncodeQueryRequest(const QueryRequest& msg, std::string& out);
QueryRequest DecodeQueryRequest(std::string_view payload);

void EncodeStatusReply(const StatusReply& msg, std::string& out);
StatusReply DecodeStatusReply(std::string_view payload);

void EncodeSummaryReply(const SummaryReply& msg, std::string& out);
SummaryReply DecodeSummaryReply(std::string_view payload);

void EncodeDrilldownReply(const DrilldownReply& msg, std::string& out);
DrilldownReply DecodeDrilldownReply(std::string_view payload);

void EncodeBackpressureEvent(const BackpressureEvent& msg, std::string& out);
BackpressureEvent DecodeBackpressureEvent(std::string_view payload);

void EncodeDrainedReply(const DrainedReply& msg, std::string& out);
DrainedReply DecodeDrainedReply(std::string_view payload);

void EncodeErrorReply(std::string_view message, std::string& out);
std::string DecodeErrorReply(std::string_view payload);

}  // namespace pmcorr
