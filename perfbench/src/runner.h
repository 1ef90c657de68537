// Rounds: one fresh engine, one statement stream, every statement recorded.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "core/database.h"
#include "oracle_check.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct StmtRecord {
  bool ok = false;
  double wall_s = 0.0;  ///< host time of the statement's engine calls
  ghostdb::exec::QueryMetrics m;        ///< valid when ok
  uint64_t channel_msgs = 0;            ///< transcript messages added, all shards
  std::vector<ghostdb::SimNanos> shard_advance;  ///< per-shard clock advance
  int64_t used_pages_drift = 0;  ///< shard 0 used_pages - post-Build value
};

struct Round {
  uint32_t dataset = 0;  ///< which of the run's datasets (< kDatasetsPerRun)
  bool traced = false;
  double stage_s = 0.0;
  double build_s = 0.0;
  std::vector<StmtRecord> stmts;
  uint64_t ok = 0;
  uint64_t alloc_failures = 0;
  uint64_t first_exhausted = 0;  ///< 1-based; 0 = never exhausted
  uint64_t cache_evictions = 0;
  uint64_t transcript_end = 0;
  double rss_after_setup_mb = 0.0;
  double rss_end_mb = 0.0;
  std::string exact;  ///< canonical text of every exact quantity
  double setup_s() const { return stage_s + build_s; }
  double stream_s() const {
    double s = 0.0;
    for (const StmtRecord& r : stmts) s += r.wall_s;
    return s;
  }
};

/// VmHWM / VmRSS (or any other /proc/self/status size) in MiB; 0 when
/// unavailable.
double ProcStatusMiB(const char* key);

/// Runs the rounds of one workload and run seed.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, uint64_t run_seed);

  /// Builds a fresh engine from dataset `dataset`'s rows and runs its
  /// stream, traced when `tracer` is set. A non-OK status means the run is
  /// incorrect: a wrong answer, an unexpected error, or a failed build.
  ghostdb::Status RunRound(uint32_t dataset, Tracer* tracer, Round* round);

 private:
  struct Dataset {
    uint64_t input_seed = 0;
    std::vector<std::string> stream;
    OracleMemo oracle;
  };

  ghostdb::Status RunStatement(ghostdb::core::GhostDB& db,
                               ghostdb::core::Session* session,
                               const Dataset& data, size_t index,
                               int64_t stmt_id, Tracer* tracer,
                               StmtRecord* rec,
                               ghostdb::Result<ghostdb::exec::QueryResult>* result);

  const WorkloadSpec& spec_;
  std::array<Dataset, kDatasetsPerRun> datasets_;
  size_t rounds_run_ = 0;
};

}  // namespace perfbench
