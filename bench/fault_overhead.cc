// Cost of the fault-injection subsystem, measured three ways over the
// same data and workload:
//
//   injection_off   — FaultConfig.enabled = false: the production default.
//                     Hook sites compile in but short-circuit on the
//                     master switch; this is the baseline.
//   hooks_zero_prob — injection enabled with every site probability at
//                     zero: each flash/channel/RAM operation pays one
//                     schedule draw (a splitmix64 hash) but no fault ever
//                     fires. The delta vs injection_off is the pure hook
//                     overhead.
//   transient_retry — transient flash faults (transient_fraction = 1.0)
//                     at a rate chosen so retries actually happen: the
//                     retry-with-backoff path cost, visible mostly as
//                     simulated backoff time, plus exact retry counters.
//
// Wall-clock is real host time; simulated seconds add the device I/O
// model (retry backoff is charged there, under the "fault-retry" clock
// category). `--smoke` shrinks the data for CI; `--json FILE` emits the
// machine-readable results the bench-smoke job uploads as
// BENCH_fault_overhead.json.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "common/rng.h"
#include "device/fault_injector.h"

namespace {

using ghostdb::Rng;
using ghostdb::catalog::Value;
using ghostdb::core::GhostDB;
using ghostdb::core::GhostDBConfig;

GhostDBConfig MakeConfig(const ghostdb::device::FaultConfig& fault) {
  GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 64 * 1024;
  cfg.exec.sort_budget_buffers = 1;  // force spill traffic through flash
  cfg.exec.result_row_limit = 4;     // results stay on the secure display
  cfg.device.fault = fault;
  return cfg;
}

void BuildTable(GhostDB* db, uint32_t rows) {
  if (!db->Execute("CREATE TABLE R (id INT, v INT, h INT HIDDEN)").ok()) {
    std::fprintf(stderr, "create failed\n");
    std::exit(1);
  }
  Rng rng(99);
  auto staging = db->MutableStaging("R");
  for (uint32_t i = 0; i < rows; ++i) {
    (void)(*staging)->AppendRow(
        {Value::Int32(static_cast<int32_t>(rng.Uniform(1000000))),
         Value::Int32(static_cast<int32_t>(rng.Uniform(100)))});
  }
  if (!db->Build().ok()) {
    std::fprintf(stderr, "build failed\n");
    std::exit(1);
  }
}

struct Timed {
  double wall_ms = 0;
  ghostdb::Result<ghostdb::exec::QueryResult> result;

  Timed(double ms, ghostdb::Result<ghostdb::exec::QueryResult> r)
      : wall_ms(ms), result(std::move(r)) {}
};

Timed Run(GhostDB* db, const std::string& sql) {
  auto start = std::chrono::steady_clock::now();
  auto result = db->Query(sql);
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return Timed(wall_ms, std::move(result));
}

}  // namespace

int main(int argc, char** argv) {
  using ghostdb::bench::JsonReporter;
  using ghostdb::device::FaultConfig;
  double scale = ghostdb::bench::ScaleArg(argc, argv, 0.5);
  if (ghostdb::bench::HasFlag(argc, argv, "--smoke")) scale = 0.05;
  JsonReporter json(argc, argv);
  uint32_t rows = static_cast<uint32_t>(60000 * scale);
  if (rows < 1000) rows = 1000;
  uint32_t reps = 3;
  ghostdb::bench::Banner("fault_overhead",
                         "fault-injection hook + retry-path cost", scale);
  std::printf("R: %u rows; spilling ORDER BY, %u reps per config\n\n", rows,
              reps);

  const std::string kSql =
      "SELECT R.id, R.v FROM R WHERE R.h >= 0 ORDER BY R.v";

  FaultConfig off;  // enabled = false

  FaultConfig zero;
  zero.enabled = true;
  zero.seed = 7;

  FaultConfig retry;
  retry.enabled = true;
  retry.seed = 7;
  retry.flash_read_p = 0.002;
  retry.flash_write_p = 0.002;
  retry.transient_fraction = 1.0;  // every fault transient: retried, never
                                   // surfaced as an error

  struct Case {
    const char* name;
    const FaultConfig* fault;
  };
  const Case cases[] = {
      {"injection_off", &off},
      {"hooks_zero_prob", &zero},
      {"transient_retry", &retry},
  };

  std::printf("%-18s %12s %12s %10s %10s %10s\n", "case", "wall_ms",
              "sim_s", "rows", "faults", "retries");
  double off_ms = 0, zero_ms = 0, retry_ms = 0;
  for (const Case& c : cases) {
    GhostDB db(MakeConfig(*c.fault));
    BuildTable(&db, rows);
    double wall_ms = 0, sim_s = 0;
    uint64_t faults = 0, retries = 0, result_rows = 0;
    ghostdb::exec::QueryMetrics last{};
    bool ok = true;
    for (uint32_t r = 0; r < reps && ok; ++r) {
      Timed t = Run(&db, kSql);
      if (!t.result.ok()) {
        std::printf("%-18s %12.2f  (%s)\n", c.name, t.wall_ms,
                    t.result.status().ToString().c_str());
        json.Record(c.name, t.wall_ms, 0.0, ghostdb::exec::QueryMetrics{},
                    "error");
        ok = false;
        break;
      }
      const auto& m = t.result->metrics;
      wall_ms += t.wall_ms;
      sim_s += ghostdb::bench::Sec(m.total_ns);
      faults += m.faults_injected;
      retries += m.flash_retries;
      result_rows = m.result_rows;
      last = m;
    }
    if (!ok) continue;
    wall_ms /= reps;
    sim_s /= reps;
    std::printf("%-18s %12.2f %12.4f %10llu %10llu %10llu\n", c.name,
                wall_ms, sim_s,
                static_cast<unsigned long long>(result_rows),
                static_cast<unsigned long long>(faults),
                static_cast<unsigned long long>(retries));
    json.Record(c.name, wall_ms, sim_s, last);
    char fields[256];
    std::snprintf(fields, sizeof(fields),
                  "\"faults_injected\": %llu, \"flash_retries\": %llu, "
                  "\"reps\": %u",
                  static_cast<unsigned long long>(faults),
                  static_cast<unsigned long long>(retries), reps);
    json.RecordCustom(std::string(c.name) + "_counters", fields);
    if (std::string(c.name) == "injection_off") off_ms = wall_ms;
    if (std::string(c.name) == "hooks_zero_prob") zero_ms = wall_ms;
    if (std::string(c.name) == "transient_retry") retry_ms = wall_ms;
  }

  std::printf("\n");
  if (off_ms > 0 && zero_ms > 0) {
    std::printf("hook overhead (zero-prob vs off): %+.1f%% wall\n",
                100.0 * (zero_ms - off_ms) / off_ms);
    char fields[128];
    std::snprintf(fields, sizeof(fields),
                  "\"hook_overhead_pct\": %.2f",
                  100.0 * (zero_ms - off_ms) / off_ms);
    json.RecordCustom("hook_overhead", fields);
  }
  if (off_ms > 0 && retry_ms > 0) {
    std::printf("retry-path overhead (transient vs off): %+.1f%% wall\n",
                100.0 * (retry_ms - off_ms) / off_ms);
    char fields[128];
    std::snprintf(fields, sizeof(fields),
                  "\"retry_overhead_pct\": %.2f",
                  100.0 * (retry_ms - off_ms) / off_ms);
    json.RecordCustom("retry_overhead", fields);
  }
  return 0;
}
