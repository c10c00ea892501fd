// serve_bench: end-to-end benchmark of `pmcorr serve`.
//
//   serve_bench --pmcorr PATH --workload NAME --seed N --seconds S
//               --trace 0|1
//   serve_bench --pmcorr PATH --selftest
//
// Runs one cold-start session of the named workload against a freshly
// launched daemon, checks what it published against the benchmark's own
// computations, and prints one JSON line last: the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced in-process replay
// of the same inputs (--trace 1). Work files live in
// .bench_build/runs/ under the current directory and are removed at
// exit; span dumps of traced runs go to .bench_build/traces/.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string pmcorr;
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool selftest = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " wants a value");
    const std::string value = argv[++i];
    if (flag == "--pmcorr") {
      args.pmcorr = value;
    } else if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace wants 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.pmcorr.empty()) throw std::invalid_argument("--pmcorr is required");
  if (!args.selftest &&
      !(have_workload && have_seed && have_seconds && have_trace)) {
    throw std::invalid_argument(
        "--workload, --seed, --seconds and --trace are required");
  }
  if (args.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return args;
}

/// A private work directory under .bench_build/runs, entered for the
/// run's lifetime and removed with everything in it on every exit path.
class RunDir {
 public:
  explicit RunDir(const std::string& name)
      : home_(fs::current_path()),
        dir_(home_ / ".bench_build" / "runs" /
             (name + "-" + std::to_string(getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fs::current_path(dir_);
  }
  ~RunDir() {
    std::error_code ec;
    fs::current_path(home_, ec);
    fs::remove_all(dir_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const fs::path& Home() const { return home_; }

 private:
  fs::path home_;
  fs::path dir_;
};

struct Output {
  bool correct = true;
  Verdict verdict;
  std::vector<LayerMetric> metrics;
};

/// Runs the checks of one session against freshly built references.
void VerifySession(const Workload& w, const SessionResult& session,
                   Tracer* tracer, Verdict& v) {
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    const Reference ref = BuildReference(w.tenants[t], tracer);
    const TenantObservation& obs = session.tenants[t];
    CheckIndependentPath(obs, ref, v);
    CheckAggregation(obs, ref, v);
    CheckAccounting(obs, ref, v);
    CheckRestore(obs, ref, v);
    CountOperations(obs, ref, v);
  }
}

void PrintResult(const Output& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.verdict.attempted),
              static_cast<unsigned long long>(out.verdict.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const LayerMetric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int RunWorkload(const Args& args) {
  Workload w = MakeWorkload(args.workload, args.seed, args.seconds);
  Output out;
  {
    RunDir dir(args.workload + "-s" + std::to_string(args.seed));
    const Clock::time_point t0 = Clock::now();
    MakeInputs(w);
    const Clock::time_point t1 = Clock::now();
    const SessionResult s = RunSession(w, args.pmcorr);
    const Clock::time_point t2 = Clock::now();
    Tracer tracer;
    VerifySession(w, s, args.trace ? &tracer : nullptr, out.verdict);
    std::fprintf(stderr,
                 "serve_bench: inputs %.1f s, daemon sessions %.1f s, "
                 "verification %.1f s\n",
                 SecondsBetween(t0, t1), SecondsBetween(t1, t2),
                 SecondsBetween(t2, Clock::now()));
    std::fprintf(stderr,
                 "serve_bench: %s seed %llu: %zu publish samples, "
                 "max queue %llu rows, %llu backpressure raises, "
                 "%llu cadence checkpoints\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 s.publish_samples,
                 static_cast<unsigned long long>(s.max_queue_rows),
                 static_cast<unsigned long long>(s.backpressure_raises),
                 static_cast<unsigned long long>(s.checkpoints));
    if (args.trace) {
      std::vector<std::uint64_t> sealed;
      for (const TenantObservation& t : s.tenants) {
        sealed.push_back(t.first_seal_bytes);
      }
      out.metrics = ReplayLayers(w, sealed, tracer, out.verdict);
      out.metrics.push_back({"tenant.max_queue_rows", "rows",
                             static_cast<double>(s.max_queue_rows)});
      out.metrics.push_back({"tenant.backpressure_raises", "count",
                             static_cast<double>(s.backpressure_raises)});
      out.metrics.push_back({"tenant.checkpoints", "count",
                             static_cast<double>(s.checkpoints)});
      const fs::path traces = dir.Home() / ".bench_build" / "traces";
      fs::create_directories(traces);
      tracer.WriteJson(traces / (w.name + "-seed" +
                                 std::to_string(args.seed) + ".json"));
    } else {
      out.metrics = {
          {"setup_s", "s", s.setup_s},
          {"ingest_rows_per_s", "rows/s", s.ingest_rows_per_s},
          {"publish_latency_p50_ms", "ms", s.publish_p50_ms},
          {"publish_latency_p99_ms", "ms", s.publish_p99_ms},
          {"query_latency_p50_ms", "ms", s.query_p50_ms},
          {"drain_s", "s", s.drain_s},
          {"checkpoint_mib", "MiB", s.checkpoint_mib},
          {"restart_s", "s", s.restart_s},
          {"rss_peak_mib", "MiB", s.rss_peak_mib},
      };
    }
  }
  for (const std::string& p : out.verdict.problems) {
    std::fprintf(stderr, "serve_bench: %s\n", p.c_str());
  }
  out.correct = out.verdict.problems.empty();
  PrintResult(out);
  return 0;
}

/// Shows that each correctness check can fail: a tiny clean session
/// first, then one perturbation of the reference per check.
int RunSelfTest(const Args& args) {
  Workload w = MakeSelfTestWorkload(args.seed);
  RunDir dir("selftest");
  MakeInputs(w);
  const SessionResult s = RunSession(w, args.pmcorr);
  const TenantObservation& obs = s.tenants[0];
  const Reference ref = BuildReference(w.tenants[0], nullptr);
  int failures = 0;
  auto expect = [&](const char* what, bool ok) {
    std::printf("selftest: %-52s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  auto clean = [](const Verdict& v) { return v.problems.empty(); };

  {
    Verdict v;
    CheckIndependentPath(obs, ref, v);
    CheckAggregation(obs, ref, v);
    CheckAccounting(obs, ref, v);
    CheckRestore(obs, ref, v);
    CountOperations(obs, ref, v);
    for (const std::string& p : v.problems) std::printf("  %s\n", p.c_str());
    expect("clean session passes every check", clean(v));
    expect("restored block's first row counted as the fault",
           v.failed == w.blocks - 1);
  }
  {
    Reference bad = ref;
    pmcorr::SystemSnapshot& last = bad.blocks[0].back();
    std::size_t p = 0;
    while (p < last.pair_scores.size() && !last.pair_scores[p]) ++p;
    if (p < last.pair_scores.size()) {
      double score = *last.pair_scores[p];
      std::uint64_t bits = 0;
      std::memcpy(&bits, &score, sizeof(bits));
      bits ^= 1;
      std::memcpy(&score, &bits, sizeof(bits));
      last.pair_scores[p] = score;
    }
    Verdict v;
    CheckIndependentPath(obs, bad, v);
    expect("flipped pair score reported by independent-path",
           v.Reports("independent-path"));
  }
  {
    Reference bad = ref;
    bad.blocks[0].pop_back();
    Verdict v;
    CheckAccounting(obs, bad, v);
    expect("dropped row reported by accounting", v.Reports("accounting"));
  }
  {
    Reference bad = ref;
    pmcorr::SystemSnapshot& last = bad.blocks[0].back();
    std::vector<std::optional<double>>& qa = last.measurement_scores;
    for (std::size_t a = 1; a < qa.size(); ++a) {
      if (qa[a] && qa[0] && *qa[a] != *qa[0]) {
        std::swap(qa[0], qa[a]);
        break;
      }
    }
    Verdict v;
    CheckAggregation(obs, bad, v);
    expect("swapped Q^a values reported by aggregation",
           v.Reports("aggregation"));
  }
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::Args args = perfbench::ParseArgs(argc, argv);
    args.pmcorr = std::filesystem::absolute(args.pmcorr).string();
    return args.selftest ? perfbench::RunSelfTest(args)
                         : perfbench::RunWorkload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 1;
  }
}
