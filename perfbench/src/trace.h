// In-memory span recorder for the traced run. The benchmark opens spans
// around its own calls into each layer's public functions (spans inside the
// engine are not recorded here); spans stay in memory and are written as
// JSON once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  ///< static string: "stmt", "sql.parse", ...
  int64_t start_ns;  ///< steady-clock time since the tracer started
  int64_t end_ns;
  int32_t parent;    ///< index of the enclosing span, -1 for a root
  int64_t stmt;      ///< statement id (round * 1e6 + index), -1 if none
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its index (the handle End() and children
  /// take as `parent`).
  int32_t Begin(const char* name, int32_t parent, int64_t stmt) {
    spans_.push_back({name, NowNs(), -1, parent, stmt});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of each span minus the time its direct children cover
  /// (children of one span never overlap: the client is one thread).
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

  /// Writes every span as one JSON document; false on an I/O error.
  bool WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
