#include "oracle_check.h"

#include <cstring>
#include <set>
#include <thread>
#include <variant>

#include "reference/oracle.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

using ghostdb::Result;
using ghostdb::Status;
using ghostdb::catalog::DataType;
using ghostdb::catalog::Value;
using Rows = std::vector<std::vector<Value>>;

namespace {

template <typename T>
void AppendRaw(T v, std::string* out) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void AppendCanonical(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case DataType::kInt32:
      AppendRaw(v.AsInt32(), out);
      break;
    case DataType::kInt64:
      AppendRaw(v.AsInt64(), out);
      break;
    case DataType::kDouble: {
      double d = v.AsDouble();
      AppendRaw(d == 0.0 ? 0.0 : d, out);  // -0.0 == 0.0, as Value says
      break;
    }
    case DataType::kString: {
      const std::string& s = v.AsString();
      size_t n = s.find_last_not_of(' ');
      n = n == std::string::npos ? 0 : n + 1;
      AppendRaw(static_cast<uint32_t>(n), out);
      out->append(s, 0, n);
      break;
    }
  }
}

/// FNV-1a over the canonical encoding of every row, each row prefixed by
/// its arity.
uint64_t Digest(const Rows& rows) {
  uint64_t h = Fnv1a("");
  std::string buf;
  for (const auto& row : rows) {
    buf.clear();
    AppendRaw(static_cast<uint32_t>(row.size()), &buf);
    for (const Value& v : row) AppendCanonical(v, &buf);
    h = Fnv1a(buf, h);
  }
  return h;
}

std::string RenderRow(const std::vector<Value>& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

Result<Rows> Evaluate(const ghostdb::core::GhostDB& db,
                      const std::string& sql) {
  GHOSTDB_ASSIGN_OR_RETURN(ghostdb::sql::Statement stmt,
                           ghostdb::sql::Parse(sql));
  auto* select = std::get_if<ghostdb::sql::SelectStmt>(&stmt);
  if (select == nullptr) return Status::InvalidArgument("not a SELECT");
  GHOSTDB_ASSIGN_OR_RETURN(ghostdb::sql::BoundQuery bound,
                           ghostdb::sql::Bind(*select, db.schema(), sql));
  return ghostdb::reference::Evaluate(db.schema(), db.staged(), bound);
}

}  // namespace

Status OracleMemo::Ensure(const ghostdb::core::GhostDB& db,
                          const std::vector<std::string>& sqls,
                          unsigned threads) {
  std::vector<std::string> todo;
  std::set<std::string> seen;
  for (const std::string& sql : sqls) {
    if (memo_.count(sql) == 0 && seen.insert(sql).second) todo.push_back(sql);
  }
  std::vector<Expected> answers(todo.size());
  std::vector<Status> statuses(todo.size());
  auto work = [&](size_t first) {
    for (size_t i = first; i < todo.size(); i += threads) {
      auto rows = Evaluate(db, todo[i]);
      if (!rows.ok()) {
        statuses[i] = rows.status();
        continue;
      }
      answers[i] = {rows->size(), Digest(*rows)};
    }
  };
  // The reference evaluator only reads the schema and the staged data.
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads && t < todo.size(); ++t) {
    pool.emplace_back(work, t);
  }
  work(0);
  for (auto& t : pool) t.join();
  for (size_t i = 0; i < todo.size(); ++i) {
    if (!statuses[i].ok()) {
      return Status::Internal("oracle failed on \"" + todo[i] +
                              "\": " + statuses[i].ToString());
    }
    memo_.emplace(todo[i], answers[i]);
  }
  return Status::OK();
}

Status OracleMemo::Check(const ghostdb::core::GhostDB& db,
                         const std::string& sql,
                         const ghostdb::exec::QueryResult& got) const {
  auto it = memo_.find(sql);
  if (it == memo_.end()) return Status::Internal("no oracle answer memoised");
  const Expected& want = it->second;
  if (got.total_rows != want.rows || got.rows.size() != want.rows) {
    return Status::Internal("row count: engine " +
                            std::to_string(got.total_rows) + " (" +
                            std::to_string(got.rows.size()) +
                            " materialized), oracle " +
                            std::to_string(want.rows));
  }
  if (Digest(got.rows) == want.digest) return Status::OK();
  // Slow path: name the first differing row.
  GHOSTDB_ASSIGN_OR_RETURN(Rows expected, Evaluate(db, sql));
  for (size_t r = 0; r < expected.size() && r < got.rows.size(); ++r) {
    if (got.rows[r] != expected[r]) {
      return Status::Internal("row " + std::to_string(r) + ": engine " +
                              RenderRow(got.rows[r]) + ", oracle " +
                              RenderRow(expected[r]));
    }
  }
  return Status::Internal("answer digest differs from the oracle's");
}

}  // namespace perfbench
