#include "core/database.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "crypto/sha256.h"
#include "device/guards.h"
#include "sql/binder.h"

namespace ghostdb::core {

using catalog::TableId;

namespace {

/// Merges per-shard partial-aggregate groups by canonical key: aggregates
/// fold via Aggregator::MergeFrom, first_seq takes the minimum (the
/// group's first global arrival), and the raw key cells follow the
/// first-arriving shard — the cells a single device would have rendered
/// (canonically equal keys can differ in raw bytes, e.g. -0.0 vs 0.0).
/// The result is ordered by first_seq, reproducing the single-device
/// first-arrival group emission order.
Result<std::vector<exec::PartialAggGroup>> CombineShardPartials(
    std::vector<std::vector<exec::PartialAggGroup>>* shards) {
  std::vector<exec::PartialAggGroup> out;
  std::map<std::string, size_t> index;
  for (auto& shard : *shards) {
    for (exec::PartialAggGroup& pg : shard) {
      auto [it, inserted] = index.try_emplace(pg.key, out.size());
      if (inserted) {
        out.push_back(std::move(pg));
        continue;
      }
      exec::PartialAggGroup& acc = out[it->second];
      for (size_t i = 0; i < acc.aggs.size(); ++i) {
        GHOSTDB_RETURN_NOT_OK(acc.aggs[i].MergeFrom(pg.aggs[i]));
      }
      if (pg.first_seq < acc.first_seq) {
        acc.first_seq = pg.first_seq;
        acc.key_cells = std::move(pg.key_cells);
      }
    }
    shard.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const exec::PartialAggGroup& a,
               const exec::PartialAggGroup& b) {
              return a.first_seq < b.first_seq;
            });
  return out;
}

}  // namespace

uint32_t DeclaredShapeWeight(const sql::BoundQuery& query) {
  // Visible information only: the arbiter's fairness unit is the number of
  // FROM tables the statement names. Never derived from hidden data or
  // from execution outcomes.
  return std::max<uint32_t>(1, static_cast<uint32_t>(query.tables.size()));
}

GhostDB::GhostDB(GhostDBConfig config)
    : config_(std::move(config)), plan_cache_(config_.plan_cache_capacity) {
  if (!config_.device.flash.cipher_key.has_value()) {
    // External NAND sits outside the secure perimeter (Fig 2), so pages
    // are always encrypted; derive the at-rest key from the device master
    // secret unless one was given.
    const char* label = "ghostdb-at-rest-key";
    auto digest = crypto::Sha256::Hash(
        reinterpret_cast<const uint8_t*>(label), 19);
    std::array<uint8_t, 32> key{};
    std::copy(digest.begin(), digest.end(), key.begin());
    config_.device.flash.cipher_key = key;
  }
  // Shard 0 exists from the start, so device() works before Build().
  shards_.push_back(std::make_unique<Shard>(config_.device));
}

GhostDB::~GhostDB() = default;

Status GhostDB::Execute(const std::string& sql) {
  GHOSTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (auto* create = std::get_if<sql::CreateTableStmt>(&stmt)) {
    if (built_) {
      return Status::NotSupported("schema changes after Build()");
    }
    return schema_.AddTable(create->def);
  }
  if (auto* insert = std::get_if<sql::InsertStmt>(&stmt)) {
    if (built_) {
      return Status::NotSupported(
          "updates after Build() are outside this prototype's scope "
          "(the paper treats updates as untime-critical, section 2.3)");
    }
    if (!schema_.finalized()) {
      GHOSTDB_RETURN_NOT_OK(schema_.Finalize());
      staged_.clear();
      for (TableId t = 0; t < schema_.table_count(); ++t) {
        staged_.emplace_back(&schema_, t);
      }
    }
    GHOSTDB_ASSIGN_OR_RETURN(TableId t, schema_.FindTable(insert->table));
    return staged_[t].AppendRow(insert->values);
  }
  return Status::InvalidArgument(
      "Execute() handles CREATE TABLE / INSERT; use Query() for SELECT");
}

Result<TableData*> GhostDB::MutableStaging(const std::string& table) {
  if (built_) {
    return Status::NotSupported("staging after Build()");
  }
  if (!schema_.finalized()) {
    GHOSTDB_RETURN_NOT_OK(schema_.Finalize());
    staged_.clear();
    for (TableId t = 0; t < schema_.table_count(); ++t) {
      staged_.emplace_back(&schema_, t);
    }
  }
  GHOSTDB_ASSIGN_OR_RETURN(TableId t, schema_.FindTable(table));
  return &staged_[t];
}

Status GhostDB::Build() {
  if (built_) return Status::OK();
  if (config_.worker_threads == 0) {
    return Status::InvalidArgument(
        "GhostDBConfig.worker_threads must be >= 1 (1 = serial)");
  }
  if (config_.worker_threads > 64) {
    return Status::InvalidArgument(
        "GhostDBConfig.worker_threads > 64 is absurd for a PC-side morsel "
        "pool");
  }
  if (config_.shard_count == 0) {
    return Status::InvalidArgument(
        "GhostDBConfig.shard_count must be >= 1 (1 = single device)");
  }
  if (config_.shard_count > 16) {
    return Status::InvalidArgument(
        "GhostDBConfig.shard_count > 16 is absurd for a simulated fleet of "
        "smart USB keys on one host");
  }
  GHOSTDB_RETURN_NOT_OK(exec::ValidateExecConfig(config_.exec));
  GHOSTDB_RETURN_NOT_OK(device::ValidateFaultConfig(config_.device.fault));
  if (config_.worker_threads > 1) {
    pool_ = std::make_unique<exec::ThreadPool>(config_.worker_threads);
  }
  if (!schema_.finalized()) {
    GHOSTDB_RETURN_NOT_OK(schema_.Finalize());
    staged_.clear();
    for (TableId t = 0; t < schema_.table_count(); ++t) {
      staged_.emplace_back(&schema_, t);
    }
  }
  IndexedAttrs indexed_attrs;
  if (config_.indexed_attrs_by_name.has_value()) {
    std::map<TableId, std::vector<catalog::ColumnId>> resolved;
    for (const auto& [table_name, columns] :
         *config_.indexed_attrs_by_name) {
      GHOSTDB_ASSIGN_OR_RETURN(TableId t, schema_.FindTable(table_name));
      for (const auto& column_name : columns) {
        auto c = schema_.table(t).FindColumn(column_name);
        if (!c.has_value()) {
          return Status::NotFound("indexed column '" + table_name + "." +
                                  column_name + "' not found");
        }
        resolved[t].push_back(*c);
      }
      resolved.try_emplace(t);  // ensure entry exists even if empty
    }
    indexed_attrs = std::move(resolved);
  }
  // Sharded fleets: hash-partition the root's rows across the devices
  // (every other table replicates) and install each shard's local→global
  // id map on both sides of its channel — Secure renders global anchor
  // ids, Untrusted evaluates id predicates against them. A fleet of one
  // loads the staged data as is, with no global ids.
  const bool sharded = config_.shard_count > 1;
  ShardedStaging parts;
  if (sharded) {
    GHOSTDB_ASSIGN_OR_RETURN(
        parts,
        PartitionStagedByRoot(schema_, staged_, config_.shard_count));
    if (schema_.table_count() > 0) {
      fleet_anchor_rows_ = staged_[schema_.root()].row_count();
    }
  }
  // Shards load in order, each device created just before its load.
  for (uint32_t s = 0; s < config_.shard_count; ++s) {
    if (s > 0) shards_.push_back(std::make_unique<Shard>(config_.device));
    Shard& shard = *shards_[s];
    shard.untrusted = std::make_unique<untrusted::UntrustedEngine>(
        &schema_, &shard.device->channel());
    shard.untrusted->set_pool(pool_.get());
    Loader loader(&schema_, shard.device.get(), shard.allocator.get(),
                  shard.untrusted.get(), indexed_attrs);
    GHOSTDB_ASSIGN_OR_RETURN(shard.store,
                             loader.Load(sharded ? parts.shards[s] : staged_));
    if (sharded && schema_.table_count() > 0) {
      TableId root = schema_.root();
      shard.store.tables[root].global_ids = parts.root_global_ids[s];
      GHOSTDB_RETURN_NOT_OK(shard.untrusted->store().SetGlobalIds(
          root, parts.root_global_ids[s]));
    }
    shard.executor = std::make_unique<exec::SecureExecutor>(
        shard.device.get(), shard.allocator.get(), &schema_, &shard.store,
        shard.untrusted.get(), config_.exec, pool_.get());
  }
  // The planner reads shard 0's store (statistics differ per shard only in
  // their samples; the plan is shared fleet-wide through the plan cache).
  planner_ = std::make_unique<plan::Planner>(&schema_, &shards_[0]->store,
                                             config_.device.flash.page_size);
  if (!config_.retain_staged_data) {
    staged_.clear();
    staged_.shrink_to_fit();
  }
  // Arm the fault schedule only now: the load phase above must always run
  // fault-free (a half-built store is not a scenario the paper's device
  // would ship). Each shard draws from its own seed lane so a fleet run
  // doesn't replay shard 0's schedule N times.
  for (uint32_t s = 0; s < config_.shard_count; ++s) {
    device::FaultInjector& injector = shard_device(s).fault_injector();
    injector.Reseed(config_.device.fault.seed +
                    0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(s));
    injector.set_armed(true);
  }
  built_ = true;
  return Status::OK();
}

Result<std::unique_ptr<Session>> GhostDB::OpenSession(
    SessionOptions options) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before OpenSession()");
  }
  int32_t id;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    id = next_session_id_++;
  }
  std::string name =
      options.name.empty() ? "s" + std::to_string(id) : options.name;
  uint32_t quota = options.ram_quota_buffers;
  if (quota == SessionOptions::kDefaultRamQuota) {
    quota = std::max<uint32_t>(1, device().ram().total_buffers() / 4);
  }
  // A session spans the fleet: the same quota is pledged on every shard's
  // RAM manager and the session registers with every shard's arbiter, so
  // its scatter legs are admitted and charged on each device identically.
  std::vector<device::RamPartitionId> partitions;
  partitions.reserve(shard_count());
  for (uint32_t s = 0; s < shard_count(); ++s) {
    device::SecureDevice& dev = shard_device(s);
    device::RamPartitionId partition = device::kSharedRamPartition;
    if (quota > 0) {
      // The partition pledge mutates the RAM manager, so take an
      // admission: device state only ever changes under the arbiter's
      // exclusion.
      device::AdmissionGuard admission(&dev.arbiter(), -1, 1);
      GHOSTDB_ASSIGN_OR_RETURN(partition,
                               dev.ram().CreatePartition(name, quota));
    }
    dev.arbiter().Register(id, name);
    partitions.push_back(partition);
  }
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    open_sessions_ += 1;
  }
  return std::unique_ptr<Session>(
      new Session(this, id, std::move(name), std::move(partitions)));
}

void GhostDB::CloseSession(Session* session) {
  for (uint32_t s = 0; s < shard_count() &&
                       s < static_cast<uint32_t>(session->bindings_.size());
       ++s) {
    device::SecureDevice& dev = shard_device(s);
    device::RamPartitionId partition = session->bindings_[s].ram_partition;
    if (partition != device::kSharedRamPartition) {
      device::AdmissionGuard admission(&dev.arbiter(),
                                                  session->id_, 1);
      // A failure here means the session still holds buffers — impossible
      // once its last query finished (all operator handles are RAII);
      // there is nothing useful to do with it in a destructor path.
      GHOSTDB_IGNORE_STATUS(dev.ram().ReleasePartition(partition),
                            "session teardown is a destructor path");
    }
    dev.arbiter().Unregister(session->id_);
  }
  std::lock_guard<std::mutex> lk(sessions_mu_);
  open_sessions_ -= 1;
}

size_t GhostDB::open_sessions() const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  return open_sessions_;
}

Result<sql::BoundQuery> GhostDB::BindSelect(const std::string& sql,
                                            bool* explain) {
  GHOSTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  auto* select = std::get_if<sql::SelectStmt>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument("Query() expects a SELECT");
  }
  if (explain != nullptr) *explain = select->explain;
  return sql::Bind(*select, schema_, sql);
}

Status GhostDB::ServeVisCounts(const sql::BoundQuery& query,
                               const untrusted::VisPrefetch* prefetch,
                               std::map<TableId, uint64_t>* out) {
  for (TableId t : query.tables) {
    if (!query.HasVisiblePredicateOn(t)) continue;
    GHOSTDB_ASSIGN_OR_RETURN(
        uint64_t count, untrusted().ServeVisibleCount(query, t, prefetch));
    (*out)[t] = count;
  }
  return Status::OK();
}

Result<std::shared_ptr<const PreparedQuery>> GhostDB::PrepareBound(
    const sql::BoundQuery& query, untrusted::VisPrefetch* prefetch,
    PlanCache::Outcome* outcome_out) {
  GHOSTDB_ASSIGN_OR_RETURN(std::string shape, sql::QueryShape(query.sql));
  // On a miss (or a stale stats stamp): visible selectivities, computed by
  // Untrusted from visible data. Cache hits skip these round-trips
  // entirely — the main per-query planning cost under throughput
  // workloads.
  auto plan_fn = [&]() -> Result<plan::PhysicalPlan> {
    std::map<TableId, uint64_t> vis_counts;
    GHOSTDB_RETURN_NOT_OK(ServeVisCounts(query, prefetch, &vis_counts));
    return planner_->PlanQuery(query, vis_counts, config_.exec);
  };
  GHOSTDB_ASSIGN_OR_RETURN(
      PlanCache::Outcome outcome,
      plan_cache_.GetOrPlan(shape, stats_version_.load(), plan_fn));
  if (outcome_out != nullptr) *outcome_out = outcome;
  return outcome.entry;
}

Result<std::shared_ptr<const PreparedQuery>> GhostDB::Prepare(
    const std::string& sql) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before Prepare()");
  }
  GHOSTDB_ASSIGN_OR_RETURN(sql::BoundQuery query, BindSelect(sql, nullptr));
  device::AdmissionGuard admission(&device().arbiter(), -1,
                                   DeclaredShapeWeight(query));
  // Planning consults Untrusted's visible counts, so the statement is
  // announced exactly as at execution time.
  untrusted().ReceiveQuery(query.sql);
  return PrepareBound(query, nullptr, nullptr);
}

bool GhostDB::ShardFanout(const sql::BoundQuery& query) const {
  // Visible inputs only (fleet size, anchor table, EXPLAIN flag): whether
  // a statement scatters is as observable as the statement itself. A
  // non-root anchor reads only fully replicated tables, so shard 0 alone
  // holds the complete answer; EXPLAIN renders the plan without touching
  // data.
  return shards_.size() > 1 && !query.explain &&
         schema_.table_count() > 0 && query.anchor == schema_.root();
}

Result<exec::QueryResult> GhostDB::RunRecoverable(
    Shard* shard,
    const std::function<Result<exec::QueryResult>()>& attempt) const {
  device::Channel& channel = shard->device->channel();
  // Messages before this index (announcement, planning) survive a
  // recovery; everything after belongs to the attempt being replayed.
  const size_t transcript0 = channel.transcript_size();
  Result<exec::QueryResult> r = attempt();
  if (r.ok() || config_.exec.volume_padding == exec::VolumePadding::kOff ||
      !device::FaultInjector::IsInjectedFault(r.status())) {
    // Unpadded modes and genuine errors surface the leg's clean
    // per-session Status.
    return r;
  }
  // No-leak recovery: under the padded volume modes an injected fault must
  // be invisible on the wire, because whether it fired depends on the
  // flash-op count — hidden data. Erase the failed attempt's recorded span
  // (under the admission, so no other session is touching the channel)
  // and replay with the injector masked: the replay is a deterministic
  // function of visible inputs, so the surviving transcript and padded
  // volume are exactly the fault-free ones. The caller's metrics baseline
  // predates the fault, so faults_injected / flash_retries still record
  // what really happened.
  channel.EraseTranscript(transcript0,
                          channel.transcript_size() - transcript0);
  device::FaultInjector::MaskScope mask(&shard->device->fault_injector());
  return attempt();
}

Result<exec::QueryResult> GhostDB::RunSelect(const sql::BoundQuery& query,
                                             const plan::PlanChoice* pinned,
                                             const Session* session) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before querying");
  }
  static const exec::SessionBinding kMainSession;
  const exec::SessionBinding* binding =
      session != nullptr ? &session->bindings_[0] : &kMainSession;
  // Legs: every shard when the statement scatters, else shard 0 alone
  // (it holds the complete answer).
  const uint32_t legs = ShardFanout(query) ? shard_count() : 1;
  Shard& coordinator = *shards_[0];
  PlanCache::Outcome outcome;
  // PC-side speculation, per leg, before asking for any device: each
  // Untrusted pre-evaluates the visible answers its device will request —
  // pure functions of the (already announced-to-be) visible statement and
  // its own slice — while the key is still serving other sessions.
  // Channel messages are recorded when the key requests them, unchanged in
  // every byte.
  std::vector<untrusted::VisPrefetch> prefetch(legs);
  if (!query.explain) {
    for (uint32_t s = 0; s < legs; ++s) {
      GHOSTDB_ASSIGN_OR_RETURN(
          prefetch[s], shards_[s]->untrusted->PrefetchVisible(query));
    }
  }
  exec::EncodedRows deferred;
  Result<exec::QueryResult> result = [&]() -> Result<exec::QueryResult> {
    // Admission = the coordinator device. Everything in this scope —
    // baseline snapshot, announcement, planning round-trips, shard 0's
    // leg and the gather — runs with exclusive access to it under this
    // session's transcript tag, so its transcript is one deterministic
    // block.
    device::AdmissionGuard admission(&coordinator.device->arbiter(),
                                     binding->id,
                                     DeclaredShapeWeight(query));
    exec::MetricSnapshot baseline =
        exec::MetricSnapshot::Take(coordinator.device.get());
    // The query text is the only information that leaves the key.
    coordinator.untrusted->ReceiveQuery(query.sql);

    // Pinned runs serve the Vis counts like a planner run would, so their
    // transcripts and metrics stay comparable across strategies, and pad
    // like a planned run, so their observed volume is the same.
    auto pin = [&] {
      return plan::BuildPhysicalPlan(
          query, *pinned,
          config_.exec.volume_padding != exec::VolumePadding::kOff);
    };
    if (query.explain) {
      // EXPLAIN always plans afresh (never touches the cache): a cached
      // tree would render the literals and selectivities of the statement
      // that populated it, not this one.
      std::map<TableId, uint64_t> vis_counts;
      GHOSTDB_RETURN_NOT_OK(ServeVisCounts(query, nullptr, &vis_counts));
      plan::PhysicalPlan plan;
      if (pinned != nullptr) {
        plan = pin();
      } else {
        GHOSTDB_ASSIGN_OR_RETURN(
            plan, planner_->PlanQuery(query, vis_counts, config_.exec));
      }
      exec::QueryResult result;
      result.columns = {"plan"};
      result.rows = {{catalog::Value::String(
          planner_->Explain(query, plan, vis_counts))}};
      result.total_rows = 1;
      return result;
    }

    // Plan once, ahead of every recoverable span: planning reaches only
    // the channel-stall fault site, which never fails, so a recovery
    // never needs to replay it.
    plan::PhysicalPlan pinned_plan;
    std::shared_ptr<const PreparedQuery> prepared;
    const plan::PhysicalPlan* plan = &pinned_plan;
    if (pinned != nullptr) {
      std::map<TableId, uint64_t> vis_counts;
      GHOSTDB_RETURN_NOT_OK(ServeVisCounts(query, &prefetch[0], &vis_counts));
      pinned_plan = pin();
    } else {
      GHOSTDB_ASSIGN_OR_RETURN(prepared,
                               PrepareBound(query, &prefetch[0], &outcome));
      plan = &prepared->plan;  // the held snapshot keeps the plan alive
    }
    if (legs > 1) {
      return RunFanout(query, *plan, baseline, session, &prefetch,
                       &deferred);
    }
    return RunRecoverable(&coordinator, [&]() {
      deferred = exec::EncodedRows{};
      return coordinator.executor->Execute(query, *plan, baseline, *binding,
                                           &deferred, &prefetch[0]);
    });
  }();
  if (!result.ok() || query.explain) return result;
  // The rendering half of the surface: decode the captured cells to
  // Values *after* the admission released, so one session's rendering
  // overlaps the next session's device work. Purely local — the decode
  // can touch nothing observable.
  deferred.DecodeInto(&result.ValueUnsafe());
  if (pinned == nullptr) {
    result.ValueUnsafe().metrics.plan_cache_hits = outcome.hit ? 1 : 0;
    result.ValueUnsafe().metrics.plan_cache_replans =
        outcome.replanned ? 1 : 0;
    result.ValueUnsafe().metrics.plan_cache_misses =
        outcome.hit || outcome.replanned ? 0 : 1;
  }
  return result;
}

Result<exec::QueryResult> GhostDB::RunFanout(
    const sql::BoundQuery& query, const plan::PhysicalPlan& plan,
    const exec::MetricSnapshot& baseline, const Session* session,
    std::vector<untrusted::VisPrefetch>* prefetch,
    exec::EncodedRows* deferred) {
  static const exec::SessionBinding kMainSession;
  const uint32_t shards = shard_count();
  auto binding_for = [&](uint32_t s) -> const exec::SessionBinding* {
    return session != nullptr ? &session->bindings_[s] : &kMainSession;
  };
  const uint32_t weight = DeclaredShapeWeight(query);
  int boundary = exec::FindFanoutBoundary(plan);
  if (boundary < 0) {
    return Status::Internal("sharded plan has no fan-out boundary");
  }
  bool agg_boundary =
      plan.nodes[boundary].op == plan::PhysicalOp::kAggregate ||
      plan.nodes[boundary].op == plan::PhysicalOp::kGroupAggregate;

  // Scatter: every shard runs the plan's subtree at/below the boundary
  // over its own slice. Shards 1..N-1 go on their own threads under their
  // own arbiters (independent devices admit independently); shard 0's leg
  // runs on this thread under the coordinator's admission. Each leg
  // recovers from its own faults on its own thread, under its own
  // admission, measured from a baseline taken before its first attempt.
  std::vector<std::vector<exec::PartialAggGroup>> shard_partials(shards);
  std::vector<exec::EncodedRows> shard_rows(shards);
  std::vector<Result<exec::QueryResult>> legs(
      shards, Result<exec::QueryResult>(Status::Internal("scatter leg unset")));
  auto run_leg = [&](uint32_t s) {
    Shard& shard = *shards_[s];
    std::optional<device::AdmissionGuard> admission;
    if (s != 0) {
      admission.emplace(&shard.device->arbiter(), binding_for(s)->id,
                        weight);
    }
    const exec::MetricSnapshot leg_base =
        s == 0 ? baseline : exec::MetricSnapshot::Take(shard.device.get());
    exec::FanoutParams params;
    params.role = exec::FanoutParams::Role::kScatter;
    if (agg_boundary) params.partials_out = &shard_partials[s];
    legs[s] = RunRecoverable(&shard, [&]() -> Result<exec::QueryResult> {
      shard_partials[s].clear();
      shard_rows[s] = exec::EncodedRows{};
      // Whole-shard reset: the device drops out before a byte moves — the
      // leg dies with an empty transcript span and a tagged error while
      // its neighbors keep running.
      if (shard.device->fault_injector().DrawShardReset()) {
        return Status::IOError(std::string(device::FaultInjector::kTag) +
                               " shard " + std::to_string(s) +
                               " reset during scatter");
      }
      if (s != 0) shard.untrusted->ReceiveQuery(query.sql);
      // Aggregate-boundary legs emit partials, never rows: their
      // shard_rows stay empty.
      return shard.executor->Execute(query, plan, leg_base, *binding_for(s),
                                     &shard_rows[s], &(*prefetch)[s],
                                     &params);
    });
  };
  {
    std::vector<std::jthread> threads;  // joined on every exit of the block
    threads.reserve(shards - 1);
    for (uint32_t s = 1; s < shards; ++s) threads.emplace_back(run_leg, s);
    run_leg(0);
  }
  for (const Result<exec::QueryResult>& leg : legs) {
    // Graceful degradation: the query fails with the leg's clean
    // per-session Status; every other leg already finished.
    GHOSTDB_RETURN_NOT_OK(leg.status());
  }

  // Combine the shard outputs into the gather pass's input.
  exec::FanoutParams gparams;
  gparams.role = exec::FanoutParams::Role::kGather;
  gparams.padding_row_bound_override = fleet_anchor_rows_;
  std::vector<exec::PartialAggGroup> combined;
  exec::GatherInput gather_input;
  if (agg_boundary) {
    GHOSTDB_ASSIGN_OR_RETURN(combined, CombineShardPartials(&shard_partials));
    gparams.gather_partials = &combined;
  } else {
    uint64_t skipped = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      skipped += legs[s]->total_rows - shard_rows[s].row_count;
    }
    gather_input.rows = exec::MergeEncodedRowsBySeq(std::move(shard_rows));
    gather_input.skipped_rows = skipped;
    gparams.gather_rows = &gather_input;
  }

  // Gather on the coordinator: the plan's tail over the combined stream,
  // measured from its own baseline. The gather inputs are const, so the
  // tail is re-runnable by the recovery.
  Shard& coordinator = *shards_[0];
  const exec::MetricSnapshot gather_base =
      exec::MetricSnapshot::Take(coordinator.device.get());
  GHOSTDB_ASSIGN_OR_RETURN(
      exec::QueryResult gathered,
      RunRecoverable(&coordinator, [&]() {
        *deferred = exec::EncodedRows{};
        return coordinator.executor->Execute(query, plan, gather_base,
                                             *binding_for(0), deferred,
                                             nullptr, &gparams);
      }));

  // Fleet metrics: channel/flash/QEP counters sum over every leg;
  // wall-clock is the slowest scatter leg plus the gather tail (the legs'
  // device clocks tick concurrently); the answer-volume fields are the
  // gather's alone — scatter outputs are intermediate.
  exec::QueryMetrics total;
  SimNanos slowest_leg = 0;
  for (uint32_t s = 0; s < shards; ++s) {
    total.Accumulate(legs[s]->metrics);
    slowest_leg = std::max(slowest_leg, legs[s]->metrics.total_ns);
  }
  total.Accumulate(gathered.metrics);
  total.total_ns = slowest_leg + gathered.metrics.total_ns;
  total.result_rows = gathered.metrics.result_rows;
  total.observed_volume = gathered.metrics.observed_volume;
  total.padding_rows = gathered.metrics.padding_rows;
  gathered.metrics = std::move(total);
  return gathered;
}

Result<uint64_t> GhostDB::DrainSessions(
    const std::vector<Session*>& sessions, bool stop_on_error) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before querying");
  }
  auto any_error = [&] {
    for (Session* s : sessions) {
      if (s->saw_error()) return true;
    }
    return false;
  };
  uint64_t ran = 0;
  for (;;) {
    // Who is asking, at what declared weight — the arbiter's only inputs.
    std::vector<std::pair<int32_t, uint32_t>> pending;
    pending.reserve(sessions.size());
    for (Session* s : sessions) {
      uint32_t weight = 1;
      if (s->BindHead(&weight)) pending.emplace_back(s->id(), weight);
    }
    // BindHead records bind failures as results without touching the
    // device; in fail-fast mode they end the drain like any other error.
    if (stop_on_error && any_error()) break;
    if (pending.empty()) break;
    int32_t pick = device().arbiter().PickNext(pending);
    for (Session* s : sessions) {
      if (s->id() == pick) {
        s->RunHead();
        break;
      }
    }
    ran += 1;
    if (stop_on_error && any_error()) break;
  }
  return ran;
}

Result<BatchResult> GhostDB::QueryBatch(const std::vector<std::string>& sqls) {
  if (!built_) {
    return Status::InvalidArgument("call Build() before querying");
  }
  // One baseline spans the whole batch: `total` reports the batch-wide
  // costs (statements still carry their own per-query metrics).
  exec::MetricSnapshot baseline = exec::MetricSnapshot::Take(&device());
  // The degenerate scheduler case: one ephemeral session holding the whole
  // stream, no dedicated RAM partition (the batch runs from the shared
  // reserve, exactly like the sessionless path did).
  SessionOptions options;
  options.ram_quota_buffers = 0;
  options.name = "batch";
  GHOSTDB_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                           OpenSession(std::move(options)));
  for (const std::string& sql : sqls) session->Enqueue(sql);
  // Fail fast: the first erroring statement ends the batch — later
  // statements never reach the device (matching the pre-session loop).
  GHOSTDB_RETURN_NOT_OK(
      DrainSessions({session.get()}, /*stop_on_error=*/true).status());
  std::vector<Result<exec::QueryResult>> results = session->TakeResults();
  BatchResult batch;
  batch.results.reserve(results.size());
  for (Result<exec::QueryResult>& r : results) {
    GHOSTDB_RETURN_NOT_OK(r.status());
    // Statement counters sum; baseline.Delta overwrites the device-derived
    // fields with the batch-wide deltas below.
    batch.total.Accumulate(r->metrics);
    batch.results.push_back(std::move(*r));
  }
  // Device-derived batch totals come from the baseline delta on a single
  // device. A sharded fleet has N independent clocks and channels, so the
  // per-statement sums (already fleet-wide: every leg's counters fold into
  // its statement's metrics) stand as the batch totals instead.
  if (shards_.size() == 1) {
    baseline.Delta(&device(), &batch.total);
  }
  return batch;
}

Result<exec::QueryResult> GhostDB::Query(const std::string& sql) {
  GHOSTDB_ASSIGN_OR_RETURN(sql::BoundQuery query,
                           BindSelect(sql, nullptr));
  return RunSelect(query, nullptr, nullptr);
}

Result<exec::QueryResult> GhostDB::QueryWithPlan(
    const std::string& sql, const plan::PlanChoice& plan) {
  GHOSTDB_ASSIGN_OR_RETURN(sql::BoundQuery query,
                           BindSelect(sql, nullptr));
  return RunSelect(query, &plan, nullptr);
}

Result<std::string> GhostDB::Explain(const std::string& sql) {
  GHOSTDB_ASSIGN_OR_RETURN(sql::BoundQuery query,
                           BindSelect(sql, nullptr));
  query.explain = true;
  GHOSTDB_ASSIGN_OR_RETURN(exec::QueryResult result,
                           RunSelect(query, nullptr, nullptr));
  return result.rows[0][0].AsString();
}

std::string GhostDB::StorageReport() const {
  std::map<std::string, int64_t> by_tag;
  uint64_t used = 0;
  for (const auto& shard : shards_) {
    for (const auto& [tag, pages] : shard->allocator->usage_by_tag()) {
      by_tag[tag] += pages;
    }
    used += shard->allocator->used_pages();
  }
  std::string out = "flash pages by structure:\n";
  for (const auto& [tag, pages] : by_tag) {
    if (pages == 0) continue;
    out += "  " + tag + ": " + std::to_string(pages) + "\n";
  }
  const uint64_t page_size = config_.device.flash.page_size;
  out += "total used: " + std::to_string(used) + " pages (" +
         std::to_string(used * page_size / 1024 / 1024) + " MiB)\n";
  return out;
}

}  // namespace ghostdb::core
