// Strategy selection: the paper's observed decision rules (section 6.4).
// Cross variants whenever hidden predicates sit in the table's subtree;
// Pre-filtering for Visible selections with sV <= kPreFilterMaxSelectivity,
// Post-filtering otherwise, degrading to NoFilter (Cross-Pre for Cross)
// when the Bloom filter cannot reach ExecConfig::bloom_min_bpe within
// ExecConfig::bloom_max_buffers device buffers (Fig 10). The inputs are
// Visible counts and hidden-column statistics held on the key, so the
// choice — and the plan cache keyed on it — never depends on Hidden rows.
#pragma once

#include <map>
#include <string>

#include "catalog/schema.h"
#include "common/result.h"
#include "core/secure_store.h"
#include "exec/executor.h"
#include "plan/physical_plan.h"
#include "plan/strategy.h"
#include "sql/binder.h"

namespace ghostdb::plan {

/// Visible selectivity at or below which Pre-filtering wins (the paper's
/// measured crossover; Figs 9-10).
inline constexpr double kPreFilterMaxSelectivity = 0.1;

/// \brief Chooses Visible-selection strategies and the projection
/// algorithm for a bound query.
class Planner {
 public:
  /// `buffer_bytes`: one device RAM buffer (= one flash page), the unit of
  /// the Bloom-filter RAM cap.
  Planner(const catalog::Schema* schema, const core::SecureStore* store,
          size_t buffer_bytes)
      : schema_(schema), store_(store), buffer_bytes_(buffer_bytes) {}

  /// `vis_counts`: per table with visible predicates, the Vis result count
  /// (supplied by Untrusted; visible information).
  Result<PlanChoice> Choose(const sql::BoundQuery& query,
                            const std::map<catalog::TableId, uint64_t>&
                                vis_counts,
                            const exec::ExecConfig& exec_config) const;

  /// Chooses strategies and lowers them into the physical operator tree —
  /// the unit the execution engine runs and core::GhostDB caches.
  Result<PhysicalPlan> PlanQuery(const sql::BoundQuery& query,
                                 const std::map<catalog::TableId, uint64_t>&
                                     vis_counts,
                                 const exec::ExecConfig& exec_config) const;

  /// Estimated combined selectivity of the hidden predicates on tables in
  /// `subtree_root`'s subtree (1.0 when none).
  double HiddenSubtreeSelectivity(const sql::BoundQuery& query,
                                  catalog::TableId subtree_root) const;

  /// Human-readable plan description (EXPLAIN).
  std::string Explain(const sql::BoundQuery& query, const PlanChoice& plan,
                      const std::map<catalog::TableId, uint64_t>& vis_counts)
      const;

  /// EXPLAIN for a lowered plan: strategy summary plus the operator
  /// pipeline.
  std::string Explain(const sql::BoundQuery& query, const PhysicalPlan& plan,
                      const std::map<catalog::TableId, uint64_t>& vis_counts)
      const;

 private:
  const catalog::Schema* schema_;
  const core::SecureStore* store_;
  size_t buffer_bytes_;
};

}  // namespace ghostdb::plan
