// Fuzz target for the binary checkpoint decoders: LoadPairModel and
// LoadSystemMonitor. Contract under fuzzing: any byte stream either
// loads or throws std::runtime_error — no crash, no sanitizer report,
// no giant allocation from attacker-declared sizes, and no CheckFailure
// (a load that passes validation must satisfy the model invariants, so
// run the harness with -DPMCORR_AUDIT=ON to make that bite).
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "io/model_io.h"
#include "io/monitor_io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    std::istringstream in(text);
    (void)pmcorr::LoadPairModel(in);
  } catch (const std::runtime_error&) {
    // Rejected input — the expected outcome for almost every mutation.
  }
  try {
    std::istringstream in(text);
    (void)pmcorr::LoadSystemMonitor(in, /*threads=*/1);
  } catch (const std::runtime_error&) {
  }
  // The CRC footer verifier sees every checkpoint before the decoder
  // does, so it gets the rawest input of all three: arbitrary bytes must
  // be passed through (no footer), stripped (valid footer), or rejected
  // with runtime_error — never misread as covering the wrong span.
  try {
    const std::string_view body = pmcorr::VerifyCheckpointTrailer(text);
    if (body.size() > text.size()) return 0;  // unreachable; keeps body used
  } catch (const std::runtime_error&) {
  }
  return 0;
}
