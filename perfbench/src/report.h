// Metrics from recorded rounds: the end-to-end set (--trace 0) and the
// per-layer set (--trace 1), printed by name with their units.
#pragma once

#include <string>
#include <vector>

#include "runner.h"
#include "trace.h"

namespace perfbench {

/// Collects metrics, prints each as it is added, renders the JSON object.
class MetricSink {
 public:
  void Add(std::string name, double value, std::string unit,
           const std::string& note = "");
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// The rounds of one run, split by role.
struct RunRounds {
  /// The first metric round of each dataset: the source of exact metrics.
  std::vector<const Round*> exact;
  /// Every untraced round (host-time metrics).
  std::vector<const Round*> metric;
  std::vector<const Round*> traced;
  /// Every round (set-up times).
  std::vector<const Round*> all;
};

void EndToEndMetrics(const RunRounds& rounds, MetricSink* out);

/// Host diagnostics the per-layer set reports.
struct HostDiagnostics {
  double calib_before_ms = 0.0;
  double calib_after_ms = 0.0;
  double chacha20_mb_per_s = 0.0;
};

void PerLayerMetrics(const RunRounds& rounds, const Tracer& tracer,
                     const HostDiagnostics& host, MetricSink* out);

/// A fixed integer kernel (median of five timings, ms): tracks host speed
/// drift on a shared VM. Diagnostic only; nothing is scaled by it.
double CalibrationMs();

/// ChaCha20::Crypt throughput over flash-page-sized buffers (MB/s), each
/// timing recorded as a span: the cipher every external flash page goes
/// through.
double ChaChaMbPerSecond(Tracer* tracer);

}  // namespace perfbench
