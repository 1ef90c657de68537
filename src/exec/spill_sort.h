// The memory-bounded sorting core behind the relational tail: SortOp's
// path for bounds past the budget (every unbounded ORDER BY), and
// GroupAggregateOp's sort-based overflow grouping and arrival-order
// restore.
//
// Rows are fixed-width encoded cells with a trailing u64 arrival sequence
// (kSpillSeqWidth) that makes every RowComparator order total, so plain
// std::sort reproduces the operators' stable (arrival-order-ties)
// semantics. While the working set fits the relational-tail budget the
// sorter is a plain in-memory permutation sort; past it, each full
// generation is sorted and written to flash as a fixed-stride row run
// (storage::RunWriter under the paper's one-buffer discipline), runs are
// merged down to the fan-in the session's RAM partition can stream
// (MergeRowRunsBy), and the result is pulled row-at-a-time through
// RowRunReaders — O(budget) secure memory regardless of input size.
//
// Nothing here touches the channel: spill runs live on the device's own
// flash, so whether (and how much) a query spills is invisible to
// Untrusted — the transcript contract is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "device/guards.h"
#include "exec/operator.h"
#include "exec/row_run.h"

namespace ghostdb::exec {

/// \brief External-memory sorter over fixed-width encoded rows.
///
/// Lifecycle: Add() every row, Finish(), then Next() until nullptr,
/// then Close() (the destructor cleans up best-effort if the stream is
/// abandoned early, e.g. by a LIMIT above).
class ExternalRowSorter {
 public:
  /// `row_width` includes the trailing arrival sequence. `budget_rows`
  /// bounds the in-memory generation (derived from visible inputs only).
  ExternalRowSorter(ExecContext* ctx, uint32_t row_width, RowComparator cmp,
                    uint64_t budget_rows, std::string tag);
  ~ExternalRowSorter();

  ExternalRowSorter(const ExternalRowSorter&) = delete;
  ExternalRowSorter& operator=(const ExternalRowSorter&) = delete;

  /// Partial-aggregation hook: folds `row` into `acc_row` (both row_width
  /// bytes, equal under cmp's keys), combining their aggregate state in
  /// place. acc_row keeps its own non-aggregate bytes — in particular its
  /// (smaller) arrival sequence.
  using FoldFn = std::function<Status(uint8_t* acc_row, const uint8_t* row)>;

  /// Enables run-write-time folding: when a generation spills, key-equal
  /// adjacent rows collapse into one via `fold` before hitting flash, so a
  /// run carries at most one row per distinct key — the sort-spill analog
  /// of hash-side partial aggregation. Rows with equal keys from
  /// *different* runs (and the never-spilled in-memory path) still emerge
  /// adjacent from Next(); the consumer folds those on the way out.
  void set_fold(FoldFn fold) { fold_ = std::move(fold); }

  /// Appends one row (row_width bytes). Past the budget: spills the
  /// current generation as a sorted run to flash.
  Status Add(const uint8_t* row);

  /// Seals the input: sorts the tail generation and, if the sorter
  /// spilled, merges runs down to a streamable fan-in.
  Status Finish();

  /// After Finish(): the next row in sorted order (valid until the next
  /// call), or nullptr at end of stream.
  Result<const uint8_t*> Next();

  /// Releases reader buffers and frees all remaining spill runs.
  Status Close();

  bool spilled() const { return !runs_.empty(); }
  uint64_t budget_rows() const { return budget_rows_; }
  const SpillStats& stats() const { return stats_; }

 private:
  /// Sorts the current generation's permutation under the total order.
  void SortGeneration();
  /// Sorts and writes the current generation as one run, then resets it.
  Status SpillGeneration();
  /// Volume defense (ExecConfig::pad_spill_runs): writes one-row dummy
  /// runs until the total run count reaches the padding mode's target —
  /// next power of two of the real count (kQuantize) or the visible
  /// worst-case generation count ceil(padding_row_bound / budget_rows)
  /// (kWorstCase). Dummies are never read or merged and are freed in
  /// Close(); they reduce the resolution of the per-sorter spill-count
  /// side channel (exact invariance would need every operator to
  /// instantiate its sorters unconditionally — the volume channel, not
  /// this one, carries the strict guarantee).
  Status PadSpillRuns();
  const uint8_t* GenRow(uint32_t index) const {
    return arena_.data() + static_cast<size_t>(index) * row_width_;
  }

  ExecContext* ctx_;
  uint32_t row_width_;
  RowComparator cmp_;
  uint64_t budget_rows_;
  FoldFn fold_;  ///< run-write partial fold (null = write rows verbatim)
  std::string tag_;

  std::vector<uint8_t> arena_;  ///< current generation, row-major
  uint32_t gen_rows_ = 0;
  std::vector<uint32_t> perm_;  ///< sorted order of the generation
  std::vector<storage::RunRef> runs_;
  std::vector<storage::RunRef> dummy_runs_;  ///< spill-count padding
  SpillStats stats_;
  bool finished_ = false;
  bool closed_ = false;

  // Emission state (after Finish()).
  size_t emit_pos_ = 0;                     // in-memory mode cursor
  device::RamGuard reader_bufs_;        // one buffer per final run
  std::vector<std::unique_ptr<RowRunReader>> readers_;
  std::vector<uint8_t> current_;            // merge-mode output row
};

/// Strict spill-run padding (ExecConfig::pad_spill_runs): writes the
/// padded-mode dummy-run signature of a sorter that never materialized —
/// an operator whose plan *could* spill but whose live input never tripped
/// the budget (or was empty), which would otherwise distinguish itself on
/// flash from an input that spilled and padded. `stride` must be the row
/// width the real sorter would have used — a pure function of the visible
/// plan, never of the live row count. No-op unless pad_spill_runs is on.
/// Folds the dummy-run stats into ctx->metrics.
Status PadUnspilledSorter(ExecContext* ctx, uint32_t stride,
                          const std::string& tag);

}  // namespace ghostdb::exec
