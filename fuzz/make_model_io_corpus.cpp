// Writes the fuzz_model_io seed corpus: small binary checkpoints of the
// current codec (io/model_io.h, io/monitor_io.h), some intact and some
// damaged, and the footer shapes the verifier must handle.
// Deterministic; rerun it whenever the codec changes:
//
//   build/fuzz/make_model_io_corpus fuzz/corpus/model_io
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/atomic_file.h"
#include "io/model_io.h"
#include "io/monitor_io.h"

namespace {

using pmcorr::kPaperSamplePeriod;

std::vector<double> Series(std::uint64_t seed, double gain, std::size_t n) {
  pmcorr::Rng rng(seed);
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double load = 50.0 + 30.0 * std::sin(0.05 * static_cast<double>(i));
    values[i] = gain * load + rng.Normal(0.0, 1.0);
  }
  return values;
}

pmcorr::MeasurementFrame Frame(std::size_t n, pmcorr::TimePoint start) {
  pmcorr::MeasurementFrame frame(start, kPaperSamplePeriod);
  for (int c = 0; c < 3; ++c) {
    pmcorr::MeasurementInfo info;
    info.machine = pmcorr::MachineId(c);
    info.name = "m" + std::to_string(c) + "@host";
    frame.Add(info, pmcorr::TimeSeries(
                        start, kPaperSamplePeriod,
                        Series(static_cast<std::uint64_t>(start) + c,
                               1.0 + 0.5 * c, n)));
  }
  return frame;
}

void Write(const std::string& dir, const std::string& name,
           const std::string& bytes) {
  std::ofstream out(dir + "/" + name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s/%s\n", dir.c_str(), name.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s corpus-dir\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];

  // Standalone pair models, one per kernel, each stopped at a cell.
  for (const bool exponential : {false, true}) {
    pmcorr::ModelConfig config;
    config.partition.units = 20;
    config.partition.max_intervals = 4;
    if (exponential) {
      config.kernel.type = pmcorr::KernelConfig::Type::kExponential;
      config.kernel.w = 2.5;
    }
    pmcorr::PairModel model = pmcorr::PairModel::Learn(
        Series(1, 1.0, 200), Series(2, 2.0, 200), config);
    model.Step(60.0, 120.0);
    std::ostringstream out;
    pmcorr::SavePairModel(model, out);
    Write(dir, exponential ? "model_exponential.bin" : "model_triangular.bin",
          out.str());
  }

  // A three-measurement monitor stepped past its training data: its
  // stream rendering, and its sealed file intact, with a CRC bit flipped,
  // and cut mid-body under its footer.
  pmcorr::MonitorConfig config;
  config.model.partition.units = 20;
  config.model.partition.max_intervals = 3;
  config.threads = 1;
  pmcorr::SystemMonitor monitor(Frame(200, 0),
                                pmcorr::MeasurementGraph::FullMesh(3),
                                config);
  monitor.Run(Frame(10, 200 * kPaperSamplePeriod));
  std::ostringstream rendered;
  pmcorr::SaveSystemMonitor(monitor, rendered);
  const std::string body = rendered.str();
  const std::string sealed_path = dir + "/monitor_checkpoint_sealed.bin";
  pmcorr::SaveSystemMonitor(monitor, sealed_path,
                            pmcorr::CheckpointConfig{1});
  std::string sealed;
  if (!pmcorr::ReadFileBytes(sealed_path, sealed)) {
    std::fprintf(stderr, "cannot read %s\n", sealed_path.c_str());
    return 1;
  }
  const std::string footer = sealed.substr(body.size());
  Write(dir, "monitor_checkpoint.bin", body);
  std::string bad_crc = sealed;
  bad_crc[body.size() + 8] ^= 0x01;  // CRC field, after the u64 length
  Write(dir, "monitor_checkpoint_bad_crc.bin", bad_crc);
  Write(dir, "monitor_checkpoint_truncated.bin",
        body.substr(0, body.size() - 7) + footer);

  // Footer shapes on their own: a bare footer, and one under a body
  // shorter than it declares.
  Write(dir, "footer_only.bin", footer);
  Write(dir, "footer_length_mismatch.bin", body.substr(0, 18) + footer);
  return 0;
}
