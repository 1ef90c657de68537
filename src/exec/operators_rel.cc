#include "exec/operators_rel.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "exec/executor.h"

namespace ghostdb::exec {

using catalog::Value;

namespace {

// ---------------------------------------------------------------------------
// Spill-row helpers: a spill row is the concatenated encoded cells of one
// output row plus a trailing u64 arrival sequence (kSpillSeqWidth), which
// makes every comparator total and every sort stable.
// ---------------------------------------------------------------------------

std::vector<uint32_t> ColumnOffsets(const BatchLayout& layout) {
  std::vector<uint32_t> offsets(layout.cols.size());
  uint32_t off = 0;
  for (size_t c = 0; c < layout.cols.size(); ++c) {
    offsets[c] = off;
    off += layout.cols[c].width;
  }
  return offsets;
}

void PackRow(const ColumnBatch& batch, uint32_t physical_row,
             const std::vector<uint32_t>& offsets, uint64_t seq,
             uint8_t* row_buf) {
  for (size_t c = 0; c < batch.layout->cols.size(); ++c) {
    std::memcpy(row_buf + offsets[c], batch.cell(c, physical_row),
                batch.layout->cols[c].width);
  }
  EncodeFixed64(row_buf + batch.layout->row_width, seq);
}

/// ORDER BY keys over the spill-row encoding, ties by arrival.
RowComparator OrderByComparator(const BatchLayout& layout,
                                const std::vector<uint32_t>& offsets,
                                const std::vector<sql::BoundOrderKey>& keys) {
  std::vector<RowComparator::Key> cmp_keys;
  for (const auto& key : keys) {
    const BatchColumn& col = layout.cols[key.select_index];
    cmp_keys.push_back(
        {offsets[key.select_index], col.type, col.width, key.descending});
  }
  return RowComparator::ByKeys(std::move(cmp_keys), layout.row_width);
}

/// Relational-tail row budget for rows of `stride` bytes.
uint64_t BudgetRows(const ExecContext* ctx, uint32_t stride) {
  return std::max<uint64_t>(1, ctx->sort_budget_bytes / stride);
}

/// Appends one spill row's cells (sequence stripped) to a dense batch.
void AppendSpillRow(ColumnBatch* out, const std::vector<uint32_t>& offsets,
                    const uint8_t* row) {
  for (size_t c = 0; c < out->layout->cols.size(); ++c) {
    out->AppendBytes(c, row + offsets[c]);
  }
  out->CommitRow();
}

/// Morsel-parallel canonical-key extraction for GroupAggregate's hash
/// phase: keys (the `key_items` columns) of every live row land in
/// index-addressed slots of `keys` (reused across batches), computed
/// across the pool. The fold loop that consumes the keys stays sequential
/// — the spill-trip row, the first-arrival group order, and the FP
/// accumulation order are observable contract, so only this pure per-row
/// compute may fan out.
GHOSTDB_HOST_COMPUTE void ExtractKeys(ExecContext* ctx,
                                      const ColumnBatch& batch,
                                      const std::vector<size_t>& key_items,
                                      std::vector<std::string>* keys) {
  size_t n = batch.live();
  keys->resize(n);
  auto body = [&](uint32_t /*shard*/, uint64_t begin, uint64_t end) {
    for (uint64_t r = begin; r < end; ++r) {
      std::string& key = (*keys)[r];
      key.clear();
      uint32_t row = batch.row_at(r);
      for (size_t i : key_items) batch.AppendCellKey(i, row, &key);
    }
  };
  constexpr uint64_t kKeyGrain = 256;
  if (ctx->pool != nullptr && ctx->pool->ShardCount(n, kKeyGrain) > 1) {
    ctx->pool->ParallelShards(n, kKeyGrain, body);
  } else {
    body(0, 0, n);
  }
}

/// ColumnBatch::AppendCellKey over a raw encoded cell (the spill-row path,
/// where no batch exists): identical canonicalization, so keys recovered
/// from spilled partial rows land in the same equivalence classes as the
/// hash phase's.
void AppendCanonicalCellKey(catalog::DataType type, uint32_t width,
                            const uint8_t* src, std::string* out) {
  if (type == catalog::DataType::kDouble && DecodeDouble(src) == 0.0) {
    uint8_t zero[8];
    EncodeDouble(zero, 0.0);
    out->append(reinterpret_cast<const char*>(zero), 8);
    return;
  }
  out->append(reinterpret_cast<const char*>(src), width);
}

/// Row width of the batches Sort consumes: the (group-)aggregate output
/// width when the plan aggregates below it, else the projection's value
/// layout (zero-aggregate grouping keeps the input encoding). A pure
/// function of the visible query shape — the strict spill-run padding
/// passes must size their dummy rows from this, never from a live batch,
/// or the padding itself would become hidden-dependent (an empty
/// hidden-filtered stream binds no live layout).
uint32_t TailInputRowWidth(const ExecContext* ctx) {
  const sql::BoundQuery& q = *ctx->query;
  if (!q.HasAggregates()) return ctx->value_layout->row_width;
  uint32_t width = 0;
  for (size_t i = 0; i < q.select.size(); ++i) {
    const BatchColumn& in = ctx->value_layout->cols[i];
    if (q.select[i].agg == AggFunc::kNone) {
      width += in.width;
      continue;
    }
    Aggregator probe(q.select[i].agg, in.type, in.width);
    catalog::DataType out_type = probe.OutputType();
    width += out_type == in.type ? in.width : catalog::FixedWidth(out_type);
  }
  return width;
}

}  // namespace

// ---------------------------------------------------------------------------
// GatherSourceOp
// ---------------------------------------------------------------------------

Result<ColumnBatch> GatherSourceOp::Next() {
  if (done_) return ColumnBatch{};
  const GatherInput& in = *ctx_->gather_rows;
  // An all-empty merge has no bound layout; dummy-free emptiness still
  // needs a layout for the trailing skipped-row batch.
  const BatchLayout* layout =
      in.rows.row_count > 0 ? &in.rows.layout : ctx_->value_layout;
  if (offsets_.empty()) offsets_ = ColumnOffsets(*layout);
  uint64_t n = std::min<uint64_t>(ctx_->batch_rows, in.rows.row_count - pos_);
  ColumnBatch out = ColumnBatch::Make(layout, n);
  for (uint64_t r = 0; r < n; ++r, ++pos_) {
    if (emitted_ >= ctx_->rows_demanded) {
      out.skipped_rows += 1;
      continue;
    }
    const uint8_t* base =
        in.rows.cells.data() + pos_ * static_cast<size_t>(layout->row_width);
    for (size_t c = 0; c < layout->cols.size(); ++c) {
      out.AppendBytes(c, base + offsets_[c]);
    }
    out.CommitRow();
    emitted_ += 1;
  }
  if (pos_ >= in.rows.row_count) {
    done_ = true;
    out.skipped_rows += in.skipped_rows;  // the shards' demand-skipped rows
  }
  if (out.empty()) done_ = true;
  return out;
}

// ---------------------------------------------------------------------------
// AggregateOp
// ---------------------------------------------------------------------------

Status AggregateOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  const BatchLayout& in = *ctx_->value_layout;
  for (size_t i = 0; i < ctx_->query->select.size(); ++i) {
    const auto& item = ctx_->query->select[i];
    aggregators_.emplace_back(item.agg, in.cols[i].type, in.cols[i].width);
    catalog::DataType out_type = aggregators_.back().OutputType();
    // MIN/MAX keep the input encoding (strings keep their declared width);
    // COUNT/SUM/AVG emit fixed numerics.
    uint32_t out_width = out_type == in.cols[i].type
                             ? in.cols[i].width
                             : catalog::FixedWidth(out_type);
    out_layout_.Add(out_type, out_width);
  }
  return Status::OK();
}

Result<ColumnBatch> AggregateOp::Next() {
  if (done_) return ColumnBatch{};
  const auto& select = ctx_->query->select;
  if (ctx_->gather_partials != nullptr) {
    // Gather leg of a sharded aggregate: this op was built childless; its
    // input is the shard accumulators, merged exactly (ExactDoubleSum
    // makes double sums independent of the partition).
    for (const PartialAggGroup& pg : *ctx_->gather_partials) {
      for (size_t i = 0; i < aggregators_.size(); ++i) {
        GHOSTDB_RETURN_NOT_OK(aggregators_[i].MergeFrom(pg.aggs[i]));
      }
    }
  } else {
    while (true) {
      GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, child()->Next());
      if (batch.empty()) break;
      for (size_t r = 0; r < batch.live(); ++r) {
        uint32_t row = batch.row_at(r);
        for (size_t i = 0; i < select.size(); ++i) {
          if (select[i].agg == AggFunc::kCountStar) {
            aggregators_[i].AccumulateRow();
          } else {
            GHOSTDB_RETURN_NOT_OK(
                aggregators_[i].AccumulateEncoded(batch.cell(i, row)));
          }
        }
      }
    }
  }
  done_ = true;
  if (ctx_->partials_out != nullptr) {
    // Scatter leg: ship the local accumulators; the empty-input rule below
    // must apply to the *merged* count at gather, never to one shard's.
    PartialAggGroup pg;
    pg.aggs = std::move(aggregators_);
    ctx_->partials_out->push_back(std::move(pg));
    return ColumnBatch{};
  }
  // GhostDB has no NULLs, so SQL's "one row of NULLs" for value aggregates
  // over an empty input becomes an empty result instead: SUM/AVG/MIN/MAX
  // with nothing to fold emit no row (COUNT-only selects keep their zero
  // row). The reference oracle enforces the same rule.
  for (size_t i = 0; i < aggregators_.size(); ++i) {
    if (AggRequiresInput(select[i].agg) && !aggregators_[i].has_input()) {
      return ColumnBatch{};
    }
  }
  ColumnBatch out = ColumnBatch::Make(&out_layout_, 1);
  for (size_t i = 0; i < aggregators_.size(); ++i) {
    GHOSTDB_ASSIGN_OR_RETURN(Value v, aggregators_[i].Finish());
    v.Encode(out.AppendCell(i), out_layout_.cols[i].width);
  }
  out.CommitRow();
  return out;
}

// ---------------------------------------------------------------------------
// GroupAggregateOp
// ---------------------------------------------------------------------------

namespace {

/// Budget estimate for one resident hash group: the canonical map key plus
/// the raw key cells (both key_width bytes), the accumulators, and a fixed
/// container overhead. A group with no aggregates is final at its first
/// arrival and keeps only its canonical key. A pure function of the visible
/// query shape.
size_t GroupBytes(size_t key_width, size_t agg_count) {
  if (agg_count == 0) return key_width;
  return 2 * key_width + agg_count * sizeof(Aggregator) + 64;
}

}  // namespace

Status GroupAggregateOp::Open() {
  GHOSTDB_RETURN_NOT_OK(Operator::Open());
  in_layout_ = ctx_->value_layout;
  in_offsets_ = ColumnOffsets(*in_layout_);
  const auto& select = ctx_->query->select;
  for (size_t i = 0; i < select.size(); ++i) {
    const BatchColumn& in = in_layout_->cols[i];
    if (select[i].agg == AggFunc::kNone) {
      key_items_.push_back(i);
      out_layout_.Add(in.type, in.width);
    } else {
      agg_items_.push_back(i);
      Aggregator probe(select[i].agg, in.type, in.width);
      catalog::DataType out_type = probe.OutputType();
      uint32_t out_width = out_type == in.type ? in.width
                                               : catalog::FixedWidth(out_type);
      out_layout_.Add(out_type, out_width);
    }
  }
  out_offsets_ = ColumnOffsets(out_layout_);
  // Partial spill-row layout: key cells, then each aggregate's encoded
  // partial state, then the arrival sequence. All widths are pure
  // functions of the visible query shape.
  uint32_t off = 0;
  for (size_t i : key_items_) {
    spill_key_offsets_.push_back(off);
    off += in_layout_->cols[i].width;
  }
  for (size_t i : agg_items_) {
    spill_agg_offsets_.push_back(off);
    off += Aggregator::PartialWidth(select[i].agg, in_layout_->cols[i].type,
                                    in_layout_->cols[i].width);
  }
  spill_seq_offset_ = off;
  spill_stride_ = off + kSpillSeqWidth;
  row_buf_.resize(spill_stride_);
  out_buf_.resize(out_layout_.row_width + kSpillSeqWidth);
  std::vector<RowComparator::Key> keys;
  for (size_t k = 0; k < key_items_.size(); ++k) {
    size_t i = key_items_[k];
    keys.push_back({spill_key_offsets_[k], in_layout_->cols[i].type,
                    in_layout_->cols[i].width, false});
  }
  key_cmp_ = RowComparator::ByKeys(std::move(keys), spill_seq_offset_);
  return Status::OK();
}

std::vector<uint8_t> GroupAggregateOp::KeyCells(const ColumnBatch& batch,
                                                uint32_t row) const {
  std::vector<uint8_t> cells;
  for (size_t i : key_items_) {
    const uint8_t* src = batch.cell(i, row);
    cells.insert(cells.end(), src, src + in_layout_->cols[i].width);
  }
  return cells;
}

std::vector<Aggregator> GroupAggregateOp::MakeAggregators() const {
  std::vector<Aggregator> aggs;
  aggs.reserve(agg_items_.size());
  for (size_t i : agg_items_) {
    aggs.emplace_back(ctx_->query->select[i].agg, in_layout_->cols[i].type,
                      in_layout_->cols[i].width);
  }
  return aggs;
}

Status GroupAggregateOp::AccumulateInto(Group* g, const ColumnBatch& batch,
                                        uint32_t row) {
  for (size_t j = 0; j < agg_items_.size(); ++j) {
    size_t i = agg_items_[j];
    if (ctx_->query->select[i].agg == AggFunc::kCountStar) {
      g->aggs[j].AccumulateRow();
    } else {
      GHOSTDB_RETURN_NOT_OK(g->aggs[j].AccumulateEncoded(batch.cell(i, row)));
    }
  }
  return Status::OK();
}

Status GroupAggregateOp::StartSpill() {
  // Phase A clusters rows of one group adjacently (key cells ascending;
  // CompareEncoded makes ±0.0 doubles one group, matching the canonical
  // hash key) with arrival ties, so each group's partials fold in arrival
  // order and the group's first row (whose raw key cells the output shows,
  // and whose sequence the group keeps) pops first. The sorter folds
  // key-equal rows at run-write time, so each spill run holds at most one
  // partial row per group — spill volume scales with distinct groups, not
  // input rows.
  by_key_ = std::make_unique<ExternalRowSorter>(
      ctx_, spill_stride_, key_cmp_, BudgetRows(ctx_, spill_stride_),
      "group-spill");
  by_key_->set_fold([this](uint8_t* acc, const uint8_t* row) {
    return FoldPartialRow(acc, row);
  });
  return Status::OK();
}

Status GroupAggregateOp::PackPartialRow(const ColumnBatch& batch,
                                        uint32_t row, uint64_t seq) {
  for (size_t k = 0; k < key_items_.size(); ++k) {
    size_t i = key_items_[k];
    std::memcpy(row_buf_.data() + spill_key_offsets_[k], batch.cell(i, row),
                in_layout_->cols[i].width);
  }
  for (size_t j = 0; j < agg_items_.size(); ++j) {
    size_t i = agg_items_[j];
    Aggregator a(ctx_->query->select[i].agg, in_layout_->cols[i].type,
                 in_layout_->cols[i].width);
    if (ctx_->query->select[i].agg == AggFunc::kCountStar) {
      a.AccumulateRow();
    } else {
      GHOSTDB_RETURN_NOT_OK(a.AccumulateEncoded(batch.cell(i, row)));
    }
    a.EncodePartial(row_buf_.data() + spill_agg_offsets_[j]);
  }
  EncodeFixed64(row_buf_.data() + spill_seq_offset_, seq);
  return Status::OK();
}

Status GroupAggregateOp::FoldPartialRow(uint8_t* acc, const uint8_t* row) {
  for (size_t j = 0; j < agg_items_.size(); ++j) {
    size_t i = agg_items_[j];
    Aggregator a(ctx_->query->select[i].agg, in_layout_->cols[i].type,
                 in_layout_->cols[i].width);
    GHOSTDB_RETURN_NOT_OK(a.AccumulatePartial(acc + spill_agg_offsets_[j]));
    GHOSTDB_RETURN_NOT_OK(a.AccumulatePartial(row + spill_agg_offsets_[j]));
    a.EncodePartial(acc + spill_agg_offsets_[j]);
  }
  return Status::OK();
}

Status GroupAggregateOp::FlushSpillGroup(const uint8_t* partial) {
  size_t key_idx = 0, agg_idx = 0;
  for (size_t i = 0; i < out_layout_.cols.size(); ++i) {
    if (ctx_->query->select[i].agg == AggFunc::kNone) {
      std::memcpy(out_buf_.data() + out_offsets_[i],
                  partial + spill_key_offsets_[key_idx],
                  in_layout_->cols[i].width);
      key_idx += 1;
    } else {
      size_t j = agg_idx++;
      size_t si = agg_items_[j];
      Aggregator a(ctx_->query->select[si].agg, in_layout_->cols[si].type,
                   in_layout_->cols[si].width);
      GHOSTDB_RETURN_NOT_OK(
          a.AccumulatePartial(partial + spill_agg_offsets_[j]));
      GHOSTDB_ASSIGN_OR_RETURN(Value v, a.Finish());
      v.Encode(out_buf_.data() + out_offsets_[i], out_layout_.cols[i].width);
    }
  }
  // Phase B restores first-arrival order over the folded groups.
  EncodeFixed64(out_buf_.data() + out_layout_.row_width,
                DecodeFixed64(partial + spill_seq_offset_));
  return by_arrival_->Add(out_buf_.data());
}

Status GroupAggregateOp::FinishSpill() {
  GHOSTDB_RETURN_NOT_OK(by_key_->Finish());
  uint32_t out_stride = out_layout_.row_width + kSpillSeqWidth;
  by_arrival_ = std::make_unique<ExternalRowSorter>(
      ctx_, out_stride, RowComparator::ByKeys({}, out_layout_.row_width),
      BudgetRows(ctx_, out_stride), "group-arrival");
  // Cross-run duplicates emerge key-adjacent (each run was folded at
  // write time, so at most one partial per group per run remains).
  std::vector<uint8_t> acc;  // current group's folded partial row
  while (true) {
    GHOSTDB_ASSIGN_OR_RETURN(const uint8_t* row, by_key_->Next());
    if (row == nullptr) break;
    if (!acc.empty() && key_cmp_.CompareKeys(row, acc.data()) == 0) {
      GHOSTDB_RETURN_NOT_OK(FoldPartialRow(acc.data(), row));
      continue;
    }
    if (!acc.empty()) GHOSTDB_RETURN_NOT_OK(FlushSpillGroup(acc.data()));
    acc.assign(row, row + spill_stride_);
  }
  if (!acc.empty()) GHOSTDB_RETURN_NOT_OK(FlushSpillGroup(acc.data()));
  ctx_->metrics->sort_spill_runs += by_key_->stats().runs_written;
  ctx_->metrics->sort_spill_pages += by_key_->stats().pages_written;
  ctx_->metrics->padding_spill_runs += by_key_->stats().padding_runs_written;
  GHOSTDB_RETURN_NOT_OK(by_key_->Close());  // phase A flash freed here
  by_key_.reset();
  return by_arrival_->Finish();
}

Status GroupAggregateOp::FinishSpillPartials() {
  GHOSTDB_RETURN_NOT_OK(by_key_->Finish());
  std::vector<uint8_t> acc;  // current group's folded partial row
  auto flush = [&]() -> Status {
    if (acc.empty()) return Status::OK();
    PartialAggGroup pg;
    pg.first_seq = DecodeFixed64(acc.data() + spill_seq_offset_);
    pg.aggs = MakeAggregators();
    for (size_t j = 0; j < agg_items_.size(); ++j) {
      GHOSTDB_RETURN_NOT_OK(
          pg.aggs[j].AccumulatePartial(acc.data() + spill_agg_offsets_[j]));
    }
    for (size_t k = 0; k < key_items_.size(); ++k) {
      size_t i = key_items_[k];
      const uint8_t* src = acc.data() + spill_key_offsets_[k];
      pg.key_cells.insert(pg.key_cells.end(), src,
                          src + in_layout_->cols[i].width);
      AppendCanonicalCellKey(in_layout_->cols[i].type,
                             in_layout_->cols[i].width, src, &pg.key);
    }
    ctx_->partials_out->push_back(std::move(pg));
    return Status::OK();
  };
  while (true) {
    GHOSTDB_ASSIGN_OR_RETURN(const uint8_t* row, by_key_->Next());
    if (row == nullptr) break;
    if (!acc.empty() && key_cmp_.CompareKeys(row, acc.data()) == 0) {
      GHOSTDB_RETURN_NOT_OK(FoldPartialRow(acc.data(), row));
      continue;
    }
    GHOSTDB_RETURN_NOT_OK(flush());
    acc.assign(row, row + spill_stride_);
  }
  GHOSTDB_RETURN_NOT_OK(flush());
  ctx_->metrics->sort_spill_runs += by_key_->stats().runs_written;
  ctx_->metrics->sort_spill_pages += by_key_->stats().pages_written;
  ctx_->metrics->padding_spill_runs += by_key_->stats().padding_runs_written;
  GHOSTDB_RETURN_NOT_OK(by_key_->Close());
  by_key_.reset();
  return Status::OK();
}

Status GroupAggregateOp::DumpPartials() {
  // Hash groups first: recover each group's canonical key from the index
  // (groups_ order is first arrival, but the combiner re-orders by
  // first_seq anyway). Zero-aggregate groups were pushed at first arrival
  // and never entered groups_.
  std::vector<const std::string*> keys(groups_.size(), nullptr);
  if (!agg_items_.empty()) {
    for (const auto& [key, idx] : index_) keys[idx] = &key;
  }
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    Group& g = groups_[gi];
    PartialAggGroup pg;
    if (keys[gi] != nullptr) pg.key = *keys[gi];
    pg.key_cells = std::move(g.key_cells);
    pg.aggs = std::move(g.aggs);
    pg.first_seq = g.first_seq;
    ctx_->partials_out->push_back(std::move(pg));
  }
  groups_.clear();
  index_.clear();
  if (spilling_) GHOSTDB_RETURN_NOT_OK(FinishSpillPartials());
  return Status::OK();
}

Result<ColumnBatch> GroupAggregateOp::Emit() {
  ColumnBatch out = ColumnBatch::Make(
      &out_layout_, std::min<uint64_t>(ctx_->batch_rows, 256));
  while (out.rows < ctx_->batch_rows) {
    if (emit_group_ < groups_.size()) {
      Group& g = groups_[emit_group_++];
      size_t key_off = 0, agg_idx = 0;
      for (size_t i = 0; i < out_layout_.cols.size(); ++i) {
        if (ctx_->query->select[i].agg == AggFunc::kNone) {
          out.AppendBytes(i, g.key_cells.data() + key_off);
          key_off += in_layout_->cols[i].width;
        } else {
          GHOSTDB_ASSIGN_OR_RETURN(Value v, g.aggs[agg_idx++].Finish());
          v.Encode(out.AppendCell(i), out_layout_.cols[i].width);
        }
      }
      out.CommitRow();
      continue;
    }
    if (by_arrival_ == nullptr) break;
    GHOSTDB_ASSIGN_OR_RETURN(const uint8_t* row, by_arrival_->Next());
    if (row == nullptr) break;
    for (size_t c = 0; c < out_layout_.cols.size(); ++c) {
      out.AppendBytes(c, row + out_offsets_[c]);
    }
    out.CommitRow();
  }
  if (out.rows == 0) done_ = true;
  return out;
}

Result<ColumnBatch> GroupAggregateOp::Next() {
  if (done_) return ColumnBatch{};
  if (emitting_) return Emit();
  if (ctx_->gather_partials != nullptr) {
    // Gather leg of a sharded fleet: this op was built childless; seed the
    // group table from the combined shard partials, already merged by key
    // and ordered by first global arrival. Budget bookkeeping is skipped —
    // the combined set is exactly the single-device group set, whose
    // emission the budget already sized.
    groups_.reserve(ctx_->gather_partials->size());
    for (const PartialAggGroup& pg : *ctx_->gather_partials) {
      Group g;
      g.key_cells = pg.key_cells;
      g.aggs = pg.aggs;
      g.first_seq = pg.first_seq;
      groups_.push_back(std::move(g));
    }
    emitting_ = true;
    return Emit();
  }
  while (true) {
    GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, child()->Next());
    if (batch.empty()) break;
    // Keys precomputed morsel-parallel; the fold below is sequential so
    // the budget trips at the exact same row for every thread count.
    ExtractKeys(ctx_, batch, key_items_, &key_scratch_);
    std::vector<uint32_t> fresh;  // zero-aggregate groups, final on arrival
    for (size_t r = 0; r < batch.live(); ++r) {
      uint32_t row = batch.row_at(r);
      // Scatter runs stamp the global anchor id per row; it replaces the
      // local counter so group first-arrival order merges globally.
      uint64_t seq = !batch.seqs.empty() ? batch.seqs[row] : seq_++;
      const std::string& key = key_scratch_[r];
      // Known groups — frozen or not — keep folding in place: no new
      // memory either way.
      auto it = index_.find(std::string_view(key));
      if (it != index_.end()) {
        if (!agg_items_.empty()) {
          GHOSTDB_RETURN_NOT_OK(
              AccumulateInto(&groups_[it->second], batch, row));
        }
        continue;
      }
      if (!spilling_) {
        size_t group_bytes = GroupBytes(key.size(), agg_items_.size());
        if (table_bytes_ + group_bytes > ctx_->sort_budget_bytes) {
          GHOSTDB_RETURN_NOT_OK(StartSpill());
          spilling_ = true;
        } else {
          index_.emplace(key, groups_.size());
          table_bytes_ += group_bytes;
          if (agg_items_.empty()) {
            // Final at first arrival: it leaves now (see class comment).
            if (ctx_->partials_out == nullptr) {
              fresh.push_back(row);
            } else {
              PartialAggGroup pg;
              pg.key = key;
              pg.key_cells = KeyCells(batch, row);
              pg.first_seq = seq;
              ctx_->partials_out->push_back(std::move(pg));
            }
            continue;
          }
          Group g;
          g.key_cells = KeyCells(batch, row);
          g.aggs = MakeAggregators();
          g.first_seq = seq;
          GHOSTDB_RETURN_NOT_OK(AccumulateInto(&g, batch, row));
          groups_.push_back(std::move(g));
          continue;
        }
      }
      // A new group past the budget: reroute the row through sort-based
      // grouping as a single-row partial.
      GHOSTDB_RETURN_NOT_OK(PackPartialRow(batch, row, seq));
      GHOSTDB_RETURN_NOT_OK(by_key_->Add(row_buf_.data()));
    }
    if (!fresh.empty()) {
      batch.selection = std::move(fresh);
      batch.has_selection = true;
      batch.skipped_rows = 0;
      return batch;
    }
  }
  if (ctx_->partials_out != nullptr) {
    // Scatter leg: ship the local groups instead of rendering rows.
    GHOSTDB_RETURN_NOT_OK(DumpPartials());
    done_ = true;
    return ColumnBatch{};
  }
  if (spilling_) GHOSTDB_RETURN_NOT_OK(FinishSpill());
  emitting_ = true;
  return Emit();
}

Status GroupAggregateOp::Close() {
  // by_key_ outlives FinishSpill only when the stream was abandoned early;
  // fold whatever spill work actually happened either way. A failing step
  // must not strand the other phase's runs or the children's resources, so
  // the first error is deferred rather than returned.
  Status first;
  auto keep = [&first](Status s) {
    if (first.ok() && !s.ok()) first = std::move(s);
  };
  for (auto* sorter : {by_key_.get(), by_arrival_.get()}) {
    if (sorter == nullptr) continue;
    ctx_->metrics->sort_spill_runs += sorter->stats().runs_written;
    ctx_->metrics->sort_spill_pages += sorter->stats().pages_written;
    ctx_->metrics->padding_spill_runs += sorter->stats().padding_runs_written;
    keep(sorter->Close());
  }
  // Strict spill-run padding: whether this operator spills depends on the
  // hidden-filtered group count, so a never-spilled run must still write
  // both phases' padded dummy-run signatures (a scatter leg skips phase B
  // for every variant — a visible, structural property — so only phase A
  // pads there).
  if (first.ok() && !spilling_ && ctx_->config->pad_spill_runs &&
      spill_stride_ != 0) {
    keep(PadUnspilledSorter(ctx_, spill_stride_, "group-spill"));
    if (first.ok() && ctx_->partials_out == nullptr) {
      keep(PadUnspilledSorter(
          ctx_, out_layout_.row_width + kSpillSeqWidth, "group-arrival"));
    }
  }
  keep(Operator::Close());
  return first;
}

// ---------------------------------------------------------------------------
// SortOp
// ---------------------------------------------------------------------------

Status SortOp::Offer(const uint8_t* row) {
  auto heap_less = [this](uint32_t a, uint32_t b) {
    return cmp_.Compare(Slot(a), Slot(b)) < 0;
  };
  if (heap_.size() < k_) {
    uint32_t slot = static_cast<uint32_t>(heap_.size());
    arena_.insert(arena_.end(), row, row + stride_);
    heap_.push_back(slot);
    std::push_heap(heap_.begin(), heap_.end(), heap_less);
    return Status::OK();
  }
  // Heap top = the worst kept row. A later arrival with equal keys
  // compares greater (arrival tie-break), so it is rejected — exactly the
  // stable Sort -> Limit semantics.
  if (cmp_.Compare(row, Slot(heap_.front())) >= 0) {
    short_circuits_ += 1;
    return Status::OK();
  }
  std::pop_heap(heap_.begin(), heap_.end(), heap_less);
  uint32_t slot = heap_.back();
  std::copy(row, row + stride_,
            arena_.begin() + static_cast<size_t>(slot) * stride_);
  std::push_heap(heap_.begin(), heap_.end(), heap_less);
  return Status::OK();
}

Status SortOp::Gather() {
  while (true) {
    GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, child()->Next());
    if (batch.empty()) break;
    if (layout_ == nullptr) {
      layout_ = batch.layout;
      offsets_ = ColumnOffsets(*layout_);
      stride_ = layout_->row_width + kSpillSeqWidth;
      row_buf_.resize(stride_);
      cmp_ = OrderByComparator(*layout_, offsets_, ctx_->query->order_by);
      if (k_ > BudgetRows(ctx_, stride_)) {
        // The heap itself would exceed the budget (always, unbounded): run
        // the spilling sort, truncated at k rows on the way out.
        sorter_ = std::make_unique<ExternalRowSorter>(
            ctx_, stride_, cmp_, BudgetRows(ctx_, stride_), "sort-spill");
      } else {
        arena_.reserve(static_cast<size_t>(k_) * stride_);
      }
    }
    for (size_t r = 0; r < batch.live(); ++r) {
      PackRow(batch, batch.row_at(r), offsets_, seq_++, row_buf_.data());
      if (sorter_ != nullptr) {
        GHOSTDB_RETURN_NOT_OK(sorter_->Add(row_buf_.data()));
      } else {
        GHOSTDB_RETURN_NOT_OK(Offer(row_buf_.data()));
      }
    }
  }
  if (sorter_ != nullptr) {
    GHOSTDB_RETURN_NOT_OK(sorter_->Finish());
  } else {
    order_ = heap_;
    std::sort(order_.begin(), order_.end(), [this](uint32_t a, uint32_t b) {
      return cmp_.Compare(Slot(a), Slot(b)) < 0;
    });
  }
  return Status::OK();
}

Result<ColumnBatch> SortOp::Next() {
  if (done_) return ColumnBatch{};
  if (k_ == 0) {  // LIMIT 0 never pulls the child, like LimitOp
    done_ = true;
    return ColumnBatch{};
  }
  if (!gathered_) {
    GHOSTDB_RETURN_NOT_OK(Gather());
    gathered_ = true;
  }
  if (layout_ == nullptr) {
    done_ = true;
    return ColumnBatch{};
  }
  ColumnBatch out = ColumnBatch::Make(
      layout_, std::min<uint64_t>(std::min<uint64_t>(ctx_->batch_rows, k_),
                                  256));
  if (sorter_ != nullptr) {
    while (out.rows < ctx_->batch_rows && emitted_ < k_) {
      GHOSTDB_ASSIGN_OR_RETURN(const uint8_t* row, sorter_->Next());
      if (row == nullptr) break;
      AppendSpillRow(&out, offsets_, row);
      emitted_ += 1;
    }
    if (out.rows == 0 || emitted_ >= k_) done_ = true;
  } else {
    while (out.rows < ctx_->batch_rows && emit_pos_ < order_.size()) {
      AppendSpillRow(&out, offsets_, Slot(order_[emit_pos_]));
      emit_pos_ += 1;
    }
    if (emit_pos_ >= order_.size()) done_ = true;
  }
  return out;
}

Status SortOp::Close() {
  ctx_->metrics->topk_short_circuits += short_circuits_;
  Status first;
  if (sorter_ != nullptr) {
    ctx_->metrics->sort_spill_runs += sorter_->stats().runs_written;
    ctx_->metrics->sort_spill_pages += sorter_->stats().pages_written;
    ctx_->metrics->padding_spill_runs += sorter_->stats().padding_runs_written;
    first = sorter_->Close();
  } else if (ctx_->config->pad_spill_runs && k_ > 0) {
    // Strict spill-run padding for the visible spilling-sort mode (k past
    // the budget — both visible): an empty (hidden-filtered) input never
    // instantiated the sorter; write the padded dummy-run signature a real
    // sorter over zero rows would have. The in-budget heap mode uses no
    // sorter for any variant, so it pads nothing.
    uint32_t stride = TailInputRowWidth(ctx_) + kSpillSeqWidth;
    if (k_ > BudgetRows(ctx_, stride)) {
      first = PadUnspilledSorter(ctx_, stride, "sort-spill");
    }
  }
  Status children = Operator::Close();
  return first.ok() ? children : first;
}

// ---------------------------------------------------------------------------
// VolumePadOp
// ---------------------------------------------------------------------------

uint64_t VolumePadOp::PaddedTarget(uint64_t real) const {
  switch (ctx_->config->volume_padding) {
    case VolumePadding::kOff:
      return real;
    case VolumePadding::kQuantize:
      // Buckets are powers of two; an empty result pads into the first
      // bucket, so emptiness is only distinguishable from volumes > 1.
      return NextPowerOfTwo(real);
    case VolumePadding::kWorstCase: {
      // Visible worst case: one result row per anchor-table row. A
      // non-grouped aggregate emits 0 or 1 rows; LIMIT caps the stream
      // above us. All three bounds are visible, so the target — and with
      // it the observed volume — is identical across hidden variants.
      uint64_t bound = ctx_->padding_row_bound;
      if (ctx_->query->HasAggregates() && !ctx_->query->grouped()) {
        bound = 1;
      }
      if (ctx_->query->limit.has_value()) {
        bound = std::min<uint64_t>(bound, *ctx_->query->limit);
      }
      return std::max(bound, real);
    }
  }
  return real;
}

ColumnBatch VolumePadOp::DummyBatch(uint64_t rows) {
  ColumnBatch out = ColumnBatch::Make(layout_, rows);
  for (uint64_t r = 0; r < rows; ++r) {
    // Zero cells, really written: dummy rows cost the same secure-memory
    // work per row as real ones, which is the point of the defense.
    for (size_t c = 0; c < layout_->cols.size(); ++c) out.AppendCell(c);
    out.CommitRow();
  }
  out.padding_rows = rows;
  return out;
}

Result<ColumnBatch> VolumePadOp::Next() {
  if (done_) return ColumnBatch{};
  if (!draining_) {
    GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, child()->Next());
    if (!batch.empty()) {
      if (layout_ == nullptr) layout_ = batch.layout;
      real_rows_ += batch.live() + batch.skipped_rows;
      return batch;
    }
    draining_ = true;
    if (layout_ == nullptr) layout_ = ctx_->value_layout;
    uint64_t target = PaddedTarget(real_rows_);
    dummies_left_ = std::min(target - real_rows_,
                             ctx_->config->padding_dummy_row_cap);
    if (dummies_left_ > 0) {
      // Charge the dummies as if they crossed the padded result link at
      // channel throughput — the simulated-cost overhead the leakage
      // bench reports. Clock time is secure-side (the transcript records
      // no timestamps), so the charge itself leaks nothing.
      auto scope = ctx_->clock().Enter("padding");
      double bps = ctx_->device->channel().throughput();
      uint64_t bytes = dummies_left_ * layout_->row_width;
      ctx_->clock().Advance(static_cast<SimNanos>(
          static_cast<double>(bytes) * 1e9 / bps));
    }
  }
  if (dummies_left_ == 0) {
    done_ = true;
    return ColumnBatch{};
  }
  uint64_t rows = std::min<uint64_t>(dummies_left_, ctx_->batch_rows);
  dummies_left_ -= rows;
  return DummyBatch(rows);
}

// ---------------------------------------------------------------------------
// LimitOp
// ---------------------------------------------------------------------------

Result<ColumnBatch> LimitOp::Next() {
  if (emitted_ >= limit_) return ColumnBatch{};
  GHOSTDB_ASSIGN_OR_RETURN(ColumnBatch batch, child()->Next());
  if (batch.empty()) return batch;
  uint64_t room = limit_ - emitted_;
  if (batch.live() > room) {
    std::vector<uint32_t> keep;
    keep.reserve(static_cast<size_t>(room));
    for (size_t r = 0; r < room; ++r) keep.push_back(batch.row_at(r));
    batch.selection = std::move(keep);
    batch.has_selection = true;
  }
  batch.skipped_rows = 0;  // rows beyond the limit do not exist
  emitted_ += batch.live();
  return batch;
}

}  // namespace ghostdb::exec
