#include "runner.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <variant>

#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

using ghostdb::Result;
using ghostdb::SimNanos;
using ghostdb::Status;
using ghostdb::exec::QueryMetrics;
using ghostdb::exec::QueryResult;
using Clock = std::chrono::steady_clock;

namespace {

// Oracle threads (outside every timed window); the host has 4 cores.
constexpr unsigned kOracleThreads = 4;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Canonical text of a statement's exact quantities (simulated clock,
/// counters, channel and storage effects). Each round prints its digest;
/// spread.py checks that the rounds of one dataset agree.
void AppendExact(const StmtRecord& s, std::string* out) {
  char buf[512];
  if (!s.ok) {
    std::snprintf(buf, sizeof(buf), "F d%lld\n",
                  static_cast<long long>(s.used_pages_drift));
    *out += buf;
    return;
  }
  const QueryMetrics& m = s.m;
  std::snprintf(
      buf, sizeof(buf),
      "T%lld r%llu q%llu s%llu u%llu pr%llu pw%llu bt%llu be%llu gc%llu "
      "ram%u mr%u bf%.17g ch%llu cm%llu sr%llu sp%llu tk%llu ov%llu pad%llu "
      "msg%llu d%lld",
      static_cast<long long>(m.total_ns),
      static_cast<unsigned long long>(m.result_rows),
      static_cast<unsigned long long>(m.qepsj_rows),
      static_cast<unsigned long long>(m.bytes_to_secure),
      static_cast<unsigned long long>(m.bytes_to_untrusted),
      static_cast<unsigned long long>(m.flash.pages_read),
      static_cast<unsigned long long>(m.flash.pages_written),
      static_cast<unsigned long long>(m.flash.bytes_transferred),
      static_cast<unsigned long long>(m.flash.blocks_erased),
      static_cast<unsigned long long>(m.flash.gc_page_copies),
      m.peak_ram_buffers, m.merge.reduction_rounds, m.bloom_fpr_estimate,
      static_cast<unsigned long long>(m.plan_cache_hits),
      static_cast<unsigned long long>(m.plan_cache_misses),
      static_cast<unsigned long long>(m.sort_spill_runs),
      static_cast<unsigned long long>(m.sort_spill_pages),
      static_cast<unsigned long long>(m.topk_short_circuits),
      static_cast<unsigned long long>(m.observed_volume),
      static_cast<unsigned long long>(m.padding_rows),
      static_cast<unsigned long long>(s.channel_msgs),
      static_cast<long long>(s.used_pages_drift));
  *out += buf;
  for (const auto& [cat, ns] : m.categories) {
    *out += " " + cat + "=" + std::to_string(ns);
  }
  for (SimNanos ns : s.shard_advance) *out += " a" + std::to_string(ns);
  *out += "\n";
}

bool IsFlashExhaustion(const Status& st) {
  return st.IsResourceExhausted() &&
         st.message().find("flash space exhausted") != std::string::npos;
}

}  // namespace

double ProcStatusMiB(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::atof(line.c_str() + n + 1) / 1024.0;
    }
  }
  return 0.0;
}

Runner::Runner(const WorkloadSpec& spec, uint64_t run_seed) : spec_(spec) {
  for (uint32_t d = 0; d < kDatasetsPerRun; ++d) {
    datasets_[d].input_seed = InputSeed(run_seed, d);
    datasets_[d].stream = StatementStream(spec, datasets_[d].input_seed);
  }
}

Status Runner::RunStatement(ghostdb::core::GhostDB& db,
                            ghostdb::core::Session* session,
                            const Dataset& data, size_t index,
                            int64_t stmt_id, Tracer* tracer, StmtRecord* rec,
                            Result<QueryResult>* result) {
  const std::string& sql = data.stream[index];
  auto query = [&]() {
    return session != nullptr ? session->Query(sql) : db.Query(sql);
  };
  auto check = [&]() {
    Status st = data.oracle.Check(db, sql, **result);
    if (st.ok()) return st;
    return Status::Internal("statement " + std::to_string(index + 1) +
                            " is not oracle-exact: " + st.message() +
                            "\n  sql: " + sql);
  };
  if (tracer == nullptr) {
    auto t0 = Clock::now();
    *result = query();
    rec->wall_s = Seconds(t0, Clock::now());
    return result->ok() ? check() : Status::OK();
  }
  // Traced: the same statement, decomposed into the public calls of each
  // layer. Parse/Bind/Prepare/PrefetchVisible repeat work Query() does
  // itself; that extra work is part of the tracing overhead.
  const int32_t root = tracer->Begin("stmt", -1, stmt_id);
  auto traced_steps = [&]() -> Status {
    int32_t s = tracer->Begin("sql.parse", root, stmt_id);
    auto parsed = ghostdb::sql::Parse(sql);
    tracer->End(s);
    GHOSTDB_RETURN_NOT_OK(parsed.status());
    auto* select = std::get_if<ghostdb::sql::SelectStmt>(&*parsed);
    if (select == nullptr) return Status::InvalidArgument("not a SELECT");
    s = tracer->Begin("sql.bind", root, stmt_id);
    auto bound = ghostdb::sql::Bind(*select, db.schema(), sql);
    tracer->End(s);
    GHOSTDB_RETURN_NOT_OK(bound.status());
    s = tracer->Begin("plan.prepare", root, stmt_id);
    auto prepared = db.Prepare(sql);
    tracer->End(s);
    GHOSTDB_RETURN_NOT_OK(prepared.status());
    s = tracer->Begin("untrusted.prefetch", root, stmt_id);
    auto prefetch = db.untrusted().PrefetchVisible(*bound);
    tracer->End(s);
    GHOSTDB_RETURN_NOT_OK(prefetch.status());
    s = tracer->Begin("core.query", root, stmt_id);
    *result = query();
    tracer->End(s);
    return Status::OK();
  };
  auto t0 = Clock::now();
  Status steps = traced_steps();
  rec->wall_s = Seconds(t0, Clock::now());
  if (!steps.ok()) *result = steps;  // classified by the caller
  Status checked;
  if (result->ok()) {
    int32_t s = tracer->Begin("check.oracle", root, stmt_id);
    checked = check();
    tracer->End(s);
  }
  tracer->End(root);
  return checked;
}

Status Runner::RunRound(uint32_t dataset, Tracer* tracer, Round* round) {
  Dataset& data = datasets_[dataset];
  const size_t round_index = rounds_run_++;
  round->dataset = dataset;
  round->traced = tracer != nullptr;
  auto t0 = Clock::now();
  auto db = std::make_unique<ghostdb::core::GhostDB>(EngineConfig(spec_));
  GHOSTDB_RETURN_NOT_OK(StageDataset(spec_, data.input_seed, db.get()));
  auto t1 = Clock::now();
  GHOSTDB_RETURN_NOT_OK(db->Build());
  auto t2 = Clock::now();
  round->stage_s = Seconds(t0, t1);
  round->build_s = Seconds(t1, t2);

  std::vector<std::unique_ptr<ghostdb::core::Session>> sessions;
  for (uint32_t s = 0; s < spec_.sessions; ++s) {
    auto session = db->OpenSession({});
    GHOSTDB_RETURN_NOT_OK(session.status());
    sessions.push_back(std::move(*session));
  }
  const uint32_t shards = db->shard_count();
  auto transcript_total = [&]() {
    uint64_t n = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      n += db->shard_device(s).channel().transcript_size();
    }
    return n;
  };
  const int64_t used_after_build = db->allocator().used_pages();
  round->rss_after_setup_mb = ProcStatusMiB("VmRSS");
  // Memoise the expected answer of every distinct statement before the
  // stream starts (a no-op when the dataset ran before), so no oracle work
  // interleaves with timed statements.
  GHOSTDB_RETURN_NOT_OK(data.oracle.Ensure(*db, data.stream, kOracleThreads));

  round->stmts.resize(data.stream.size());
  for (size_t i = 0; i < data.stream.size(); ++i) {
    StmtRecord& rec = round->stmts[i];
    ghostdb::core::Session* session =
        sessions.empty() ? nullptr : sessions[i % sessions.size()].get();
    std::vector<SimNanos> clocks(shards);
    for (uint32_t s = 0; s < shards; ++s) {
      clocks[s] = db->shard_device(s).clock().now();
    }
    const uint64_t msgs_before = transcript_total();

    Result<QueryResult> result = Status::Internal("not run");
    const int64_t stmt_id =
        static_cast<int64_t>(round_index * 1'000'000 + i);
    GHOSTDB_RETURN_NOT_OK(
        RunStatement(*db, session, data, i, stmt_id, tracer, &rec, &result));

    rec.ok = result.ok();
    rec.used_pages_drift =
        static_cast<int64_t>(db->allocator().used_pages()) - used_after_build;
    if (rec.ok) {
      ++round->ok;
      rec.m = result->metrics;
      rec.channel_msgs = transcript_total() - msgs_before;
      rec.shard_advance.resize(shards);
      for (uint32_t s = 0; s < shards; ++s) {
        rec.shard_advance[s] = db->shard_device(s).clock().now() - clocks[s];
      }
    } else if (IsFlashExhaustion(result.status())) {
      ++round->alloc_failures;
      if (round->first_exhausted == 0) round->first_exhausted = i + 1;
    } else {
      return Status::Internal("statement " + std::to_string(i + 1) +
                              " failed unexpectedly: " +
                              result.status().ToString() +
                              "\n  sql: " + data.stream[i]);
    }
    AppendExact(rec, &round->exact);
  }
  round->cache_evictions = db->plan_cache_evictions();
  round->transcript_end = transcript_total();
  round->exact += "ev" + std::to_string(round->cache_evictions) + " tr" +
                  std::to_string(round->transcript_end) + "\n";
  round->rss_end_mb = ProcStatusMiB("VmRSS");
  return Status::OK();
}

}  // namespace perfbench
