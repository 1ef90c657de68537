// The benchmark's three workloads: each is an engine configuration, a
// dataset staged from the workload seed, and a statement stream generated
// from the same seed. The engine only ever sees the generated rows and SQL.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace perfbench {

enum class WorkloadKind { kPaperQ, kServingMix, kFleetQ };

struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  /// Sessions the single client thread drives round-robin; 0 = the
  /// sessionless GhostDB::Query surface.
  uint32_t sessions;
  /// Statements per stream. Fixed per workload, so every exact metric of
  /// a stream repeats bit for bit at one seed; each stream runs past the
  /// point where flash-space exhaustion sets in.
  size_t stream_length;
  /// Nominal host seconds of one round (set-up plus stream) on a 4-core
  /// VM. Sizes a run's schedule from --seconds without reading the clock.
  double nominal_round_s;
};

/// Looks up a workload by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
/// Comma-separated workload names, for usage messages.
std::string WorkloadNames();

/// The engine configuration (library/engine defaults for flash, RAM and
/// budgets; staged data retained for the oracle).
ghostdb::core::GhostDBConfig EngineConfig(const WorkloadSpec& spec);

/// Datasets per run. Every run measures this many independent datasets
/// (with their own statement streams) derived from its seed, one round of
/// each per pass, so a run's figures average over datasets instead of
/// resting on one draw of the data.
constexpr uint32_t kDatasetsPerRun = 2;

/// The input seed of dataset `dataset` (< kDatasetsPerRun) of a run seed.
inline uint64_t InputSeed(uint64_t run_seed, uint32_t dataset) {
  return run_seed * kDatasetsPerRun + dataset;
}

/// Stages the input seed's dataset into a freshly constructed engine.
ghostdb::Status StageDataset(const WorkloadSpec& spec, uint64_t seed,
                             ghostdb::core::GhostDB* db);

/// The input seed's statement stream (spec.stream_length statements).
std::vector<std::string> StatementStream(const WorkloadSpec& spec,
                                         uint64_t seed);

}  // namespace perfbench
