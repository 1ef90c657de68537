#include "trace.h"

#include <cstdio>

namespace perfbench {

bool Tracer::WriteJson(const std::string& path, const std::string& workload,
                       uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"stmt\": %lld}",
                 i == 0 ? "" : ",", s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.stmt));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
