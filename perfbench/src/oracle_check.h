// Answer checking against the reference oracle (reference::Evaluate over
// the engine's retained staged data), memoised per distinct statement text.
// The memo keeps, per statement, the row count and a 64-bit digest of the
// rows in a canonical byte encoding that preserves catalog::Value equality
// (type, numeric value, string with trailing spaces insignificant), so a
// memo of hundreds of wide answers costs no memory that would show in the
// process's RSS. When an answer's digest differs, the oracle is evaluated
// again and the rows compared one by one to name the first difference.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "exec/operator.h"

namespace perfbench {

/// FNV-1a (64-bit) over `bytes`, continuing from `h`.
inline uint64_t Fnv1a(const std::string& bytes,
                      uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

class OracleMemo {
 public:
  /// Makes sure the expected answers of `sqls` are memoised, evaluating
  /// the missing ones on up to `threads` threads over `db`'s staged data.
  ghostdb::Status Ensure(const ghostdb::core::GhostDB& db,
                         const std::vector<std::string>& sqls,
                         unsigned threads);
  /// Compares `got` row for row with the memoised answer of `sql`; the
  /// error names the first difference.
  ghostdb::Status Check(const ghostdb::core::GhostDB& db,
                        const std::string& sql,
                        const ghostdb::exec::QueryResult& got) const;

 private:
  struct Expected {
    uint64_t rows = 0;
    uint64_t digest = 0;
  };
  std::map<std::string, Expected> memo_;
};

}  // namespace perfbench
