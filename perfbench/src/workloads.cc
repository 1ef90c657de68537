#include "workloads.h"

#include <utility>

#include "catalog/value.h"
#include "common/rng.h"
#include "workload/synthetic.h"

namespace perfbench {

using ghostdb::Rng;
using ghostdb::Status;
using ghostdb::catalog::Value;

namespace {

// Stream lengths are fixed per workload (never derived from the time
// budget), so a stream's exact metrics are a pure function of the seed.
const WorkloadSpec kWorkloads[] = {
    {"paper_q", WorkloadKind::kPaperQ, 0, 540, 15.0},
    {"serving_mix", WorkloadKind::kServingMix, 1, 400, 5.5},
    {"fleet_q", WorkloadKind::kFleetQ, 4, 360, 16.0},
};

// Independent seed lanes: the dataset and the stream never share draws.
// `seed` here is an input seed (see InputSeed).
uint64_t DataSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ULL + 1; }
uint64_t StreamSeed(uint64_t seed) { return seed * 0xC2B2AE3D27D4EB4FULL + 7; }

ghostdb::workload::SyntheticConfig PaperConfig(uint64_t seed) {
  ghostdb::workload::SyntheticConfig wl;  // library default scale
  wl.seed = DataSeed(seed);
  return wl;
}

// Query Q over the Fig. 3 schema: every cell of sV x sH x {1,2,3}
// projected visible attributes, cycled. The seed jitters each cell's two
// selectivities by up to +-1% (one literal pair per cell, so repeated
// cycles reuse statement texts).
//
// The plan cache keeps the strategy chosen for a shape's (projection
// width's) first statement, so the cycle opens with Fig. 14's point
// (sV = 0.01, sH = 0.1) for all three shapes: the planner picks the same
// strategy there on every seed, whereas at sV = 0.1 it flips between
// Cross-Pre and Cross-Post with the data. The other cells follow in one
// fixed shuffle, the same for every seed, so the partial cycle before flash
// exhaustion is a fair sample of the grid. Selectivities stay at or above
// 0.005: smaller ones select a few dozen rows, whose count (and cost)
// varies by tens of percent between datasets.
std::vector<std::string> QueryQStream(uint64_t seed, size_t n) {
  static const double kSv[] = {0.01, 0.005, 0.02, 0.05, 0.1};
  static const double kSh[] = {0.1, 0.05, 0.2, 0.5};
  Rng rng(StreamSeed(seed));
  std::vector<std::string> cells;
  for (double sv : kSv) {
    for (double sh : kSh) {
      double jv = sv * (0.99 + 0.02 * rng.NextDouble());
      double jh = sh * (0.99 + 0.02 * rng.NextDouble());
      for (int attrs = 1; attrs <= 3; ++attrs) {
        cells.push_back(ghostdb::workload::QueryQ(jv, jh, attrs));
      }
    }
  }
  Rng order(20070611);
  for (size_t i = cells.size(); i > 4; --i) {  // cells[0..2] open the cycle
    std::swap(cells[i - 1], cells[3 + order.Uniform(i - 3)]);
  }
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(cells[i % cells.size()]);
  return out;
}

Status StageServing(uint64_t seed, ghostdb::core::GhostDB* db) {
  // The Fact/Dim serving dataset of bench/multi_session_throughput.cc: a
  // large, mostly visible Fact table over a small Dim.
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE Dim (id INT, v INT, name CHAR(12), h INT HIDDEN)"));
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE Fact (id INT, fk INT REFERENCES Dim HIDDEN, v INT, "
      "tag CHAR(16), h INT HIDDEN)"));
  Rng rng(DataSeed(seed));
  auto i32 = [&](uint64_t bound) {
    return Value::Int32(static_cast<int32_t>(rng.Uniform(bound)));
  };
  GHOSTDB_ASSIGN_OR_RETURN(ghostdb::core::TableData * dim,
                           db->MutableStaging("Dim"));
  for (int i = 0; i < 2000; ++i) {
    Value v = i32(1000);
    Value name = Value::String("n" + std::to_string(rng.Uniform(500)));
    GHOSTDB_RETURN_NOT_OK(dim->AppendRow({v, name, i32(1000)}));
  }
  GHOSTDB_ASSIGN_OR_RETURN(ghostdb::core::TableData * fact,
                           db->MutableStaging("Fact"));
  for (int i = 0; i < 60000; ++i) {
    Value fk = i32(2000);
    Value v = i32(1000);
    Value tag = Value::String("t" + std::to_string(rng.Uniform(900)));
    GHOSTDB_RETURN_NOT_OK(fact->AppendRow({fk, v, tag, i32(1000)}));
  }
  return Status::OK();
}

// The union of the statement classes of bench/multi_session_throughput.cc
// and bench/batch_throughput.cc, cycled in order: wide visible scans,
// multi-key and string-key ORDER BY, DISTINCT, GROUP BY (visible key, and
// joined key under ORDER BY + LIMIT), ungrouped aggregates, LIMIT, and
// hidden-predicate joins. A class's literal steps through ten strata of
// its range, one per occurrence; the seed rotates the strata and offsets
// the literal within them. Any ten consecutive occurrences then cover the
// whole range, so the statements that run before flash exhaustion have
// about the same cost mix on every seed.
std::vector<std::string> ServingStream(uint64_t seed, size_t n) {
  Rng rng(StreamSeed(seed));
  const uint64_t rotate = rng.Uniform(10);
  const uint64_t offset = rng.Uniform(1000);
  auto lit = [&](size_t i, uint64_t lo, uint64_t span) {
    const uint64_t stratum = (i / 10 + rotate) % 10;
    return std::to_string(lo + stratum * span / 10 + offset % (span / 10));
  };
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 10) {
      case 0:
        out.push_back("SELECT Fact.id, Fact.v, Fact.tag FROM Fact "
                      "WHERE Fact.v < " + lit(i, 600, 300));
        break;
      case 1:
        out.push_back("SELECT Fact.id, Fact.tag, Fact.v FROM Fact WHERE "
                      "Fact.v < " + lit(i, 500, 300) +
                      " ORDER BY Fact.v DESC, Fact.tag, Fact.id");
        break;
      case 2:
        out.push_back("SELECT Fact.tag, Fact.v, Fact.id FROM Fact WHERE "
                      "Fact.v < " + lit(i, 500, 300) +
                      " ORDER BY Fact.tag, Fact.v, Fact.id DESC");
        break;
      case 3:
        out.push_back("SELECT Fact.tag, COUNT(*), SUM(Fact.v) FROM Fact "
                      "WHERE Fact.v < " + lit(i, 600, 300) +
                      " GROUP BY Fact.tag");
        break;
      case 4:
        out.push_back("SELECT Fact.id, Fact.tag, Dim.v FROM Fact, Dim "
                      "WHERE Fact.fk = Dim.id AND Dim.v < " +
                      lit(i, 150, 100) + " AND Fact.h < 300 LIMIT 200");
        break;
      case 5:
        out.push_back("SELECT Fact.id, Fact.v, Fact.h FROM Fact WHERE "
                      "Fact.h < " + lit(i, 100, 400));
        break;
      case 6:
        out.push_back("SELECT Fact.id, Fact.v FROM Fact WHERE Fact.v < " +
                      lit(i, 200, 300) +
                      " AND Fact.h < 500 ORDER BY Fact.v DESC");
        break;
      case 7:
        out.push_back("SELECT DISTINCT Fact.v FROM Fact WHERE Fact.h < " +
                      lit(i, 300, 200));
        break;
      case 8:
        out.push_back("SELECT COUNT(*), SUM(Fact.v), MAX(Fact.h) FROM Fact "
                      "WHERE Fact.h >= " + lit(i, 0, 500));
        break;
      default:
        out.push_back("SELECT Dim.v, COUNT(*), SUM(Fact.v) FROM Fact, Dim "
                      "WHERE Fact.fk = Dim.id AND Fact.h < " +
                      lit(i, 400, 300) +
                      " GROUP BY Dim.v ORDER BY SUM(Fact.v) DESC LIMIT 10");
        break;
    }
  }
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

ghostdb::core::GhostDBConfig EngineConfig(const WorkloadSpec& spec) {
  ghostdb::core::GhostDBConfig cfg;
  switch (spec.kind) {
    case WorkloadKind::kPaperQ:
      cfg = ghostdb::workload::SyntheticDbConfig(PaperConfig(0));
      break;
    case WorkloadKind::kFleetQ:
      cfg = ghostdb::workload::SyntheticDbConfig(PaperConfig(0));
      cfg.shard_count = 4;
      // Padding is the deployed volume defence, so its cost is measured
      // where it is paid.
      cfg.exec.volume_padding = ghostdb::exec::VolumePadding::kQuantize;
      break;
    case WorkloadKind::kServingMix:
      cfg.worker_threads = 2;
      break;
  }
  cfg.retain_staged_data = true;
  return cfg;
}

Status StageDataset(const WorkloadSpec& spec, uint64_t seed,
                    ghostdb::core::GhostDB* db) {
  if (spec.kind == WorkloadKind::kServingMix) return StageServing(seed, db);
  return ghostdb::workload::StageSynthetic(db, PaperConfig(seed));
}

std::vector<std::string> StatementStream(const WorkloadSpec& spec,
                                         uint64_t seed) {
  if (spec.kind == WorkloadKind::kServingMix) {
    return ServingStream(seed, spec.stream_length);
  }
  return QueryQStream(seed, spec.stream_length);
}

}  // namespace perfbench
