// GhostDB end-to-end benchmark program.
//
//   perfbench --workload <paper_q|serving_mix|fleet_q> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out FILE]
//
// A run is a fixed schedule of rounds. Each round builds a fresh engine
// from one of the run's datasets (timed as set-up) and drives that
// dataset's fixed-length statement stream from one client thread, closed
// loop: the owner waits for every answer, and one secure device serialises
// the channel. A pass runs one round of each of the kDatasetsPerRun
// datasets the seed derives; the number of passes follows from --seconds
// (see Passes), so the statements a run attempts never depend on the
// clock. Every OK answer is checked row for row against the reference
// oracle, outside the timed windows.
//
// Exact metrics (ok_ratio, sim_*, per-layer counts) come from the first
// metric round of each dataset. Every later metric round of the dataset
// must repeat its exact digest, or the run is incorrect. Host-time metrics
// take each stream position's least time across the dataset's metric
// rounds (see PositionHostTimes in report.cc), over OK statements only
// (medians and p90).
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates metric
// passes with traced passes, which record spans around the calls into
// each layer (see trace.h), and prints the per-layer metrics. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "runner.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Passes over the run's datasets: a pass runs one round of each. At least
// two, so a --trace 0 run measures every dataset's stream twice and
// compares its exact digests within the run.
constexpr size_t kMinPasses = 2;

/// The run's passes: as many whole passes as fit in --seconds at the
/// workload's nominal round cost, and at least kMinPasses. Never read from
/// the clock, so a run's statements (attempted, failed) are a pure function
/// of the workload, the seed and --seconds.
size_t Passes(const WorkloadSpec& spec, double seconds) {
  const double per_pass = spec.nominal_round_s * kDatasetsPerRun;
  return std::max(kMinPasses, static_cast<size_t>(seconds / per_pass));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 == 0) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <%s> --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 WorkloadNames().c_str());
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (have: %s)\n",
                 args.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  const size_t passes = Passes(*spec, args.seconds);
  std::printf("perfbench: workload %s, seed %llu, %u datasets x %zu "
              "passes, %zu statements/stream, %s\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              kDatasetsPerRun, passes,
              spec->stream_length,
              args.trace ? "metric + traced passes" : "metric passes");
  HostDiagnostics host;
  host.calib_before_ms = CalibrationMs();
  std::printf("host.calib_ms before: %.3f\n", host.calib_before_ms);

  Runner runner(*spec, args.seed);
  Tracer tracer;
  std::vector<std::unique_ptr<Round>> rounds;
  std::array<const Round*, kDatasetsPerRun> first_of{};
  std::string error;
  for (size_t pass = 0; pass < passes && error.empty(); ++pass) {
    // With --trace 1: metric, traced, metric, ... passes.
    const bool traced = args.trace == 1 && pass % 2 == 1;
    for (uint32_t dataset = 0; dataset < kDatasetsPerRun; ++dataset) {
      auto round = std::make_unique<Round>();
      ghostdb::Status st =
          runner.RunRound(dataset, traced ? &tracer : nullptr, round.get());
      if (!st.ok()) {
        error = st.ToString();
        break;
      }
      const uint64_t digest = Fnv1a(round->exact);
      std::printf("round %zu (dataset %u%s): setup %.3f s (stage %.3f, "
                  "build %.3f), %llu/%zu OK, stream %.3f s, exact digest "
                  "%016llx\n",
                  rounds.size() + 1, dataset, traced ? ", traced" : "",
                  round->setup_s(), round->stage_s, round->build_s,
                  static_cast<unsigned long long>(round->ok),
                  round->stmts.size(), round->stream_s(),
                  static_cast<unsigned long long>(digest));
      if (!traced) {
        // Every metric round of a dataset must do the same work: the host
        // times of a stream position are compared across them.
        if (first_of[dataset] == nullptr) {
          first_of[dataset] = round.get();
        } else if (Fnv1a(first_of[dataset]->exact) != digest) {
          error = "exact metrics of dataset " + std::to_string(dataset) +
                  " differ between its metric rounds";
        }
      }
      rounds.push_back(std::move(round));
      if (!error.empty()) break;
    }
  }
  host.calib_after_ms = CalibrationMs();
  std::printf("host.calib_ms after: %.3f\n", host.calib_after_ms);

  uint64_t attempted = 0, failed = 0;
  RunRounds split;
  for (const auto& r : rounds) {
    attempted += r->stmts.size();
    failed += r->stmts.size() - r->ok;
    (r->traced ? split.traced : split.metric).push_back(r.get());
    split.all.push_back(r.get());
  }
  for (const Round* r : first_of) {
    if (r != nullptr) split.exact.push_back(r);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: run incorrect: %s\n", error.c_str());
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    return 1;
  }

  MetricSink sink;
  if (args.trace == 0) {
    std::printf("end-to-end metrics:\n");
    EndToEndMetrics(split, &sink);
  } else {
    host.chacha20_mb_per_s = ChaChaMbPerSecond(&tracer);
    std::printf("per-layer metrics:\n");
    PerLayerMetrics(split, tracer, host, &sink);
    if (!args.trace_out.empty()) {
      if (!tracer.WriteJson(args.trace_out, spec->name, args.seed)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                  args.trace_out.c_str());
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), sink.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
