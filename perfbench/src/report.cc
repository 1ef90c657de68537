#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>

#include "crypto/chacha20.h"

namespace perfbench {

using ghostdb::SimNanos;
using ghostdb::exec::QueryMetrics;
using Clock = std::chrono::steady_clock;

namespace {

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string SampleNote(size_t n) { return "  (n=" + std::to_string(n) + ")"; }

/// Host time of a set of rounds. A stream position's time is the least of
/// its executions across the rounds of its dataset: every round of a
/// dataset does the same work at a position (their exact digests match),
/// and host interference only ever adds time, so the least execution is
/// the position's cost with the fewest host stalls in it.
struct HostTimes {
  std::vector<double> ok_ms;  ///< one entry per OK stream position
  double stream_s = 0.0;      ///< every position, OK or refused
  /// OK statements per host second of the timed stream.
  double OkPerSecond() const {
    return stream_s > 0.0 ? static_cast<double>(ok_ms.size()) / stream_s
                          : 0.0;
  }
};

HostTimes PositionHostTimes(const std::vector<const Round*>& rounds) {
  std::map<uint32_t, std::vector<double>> least;  // per dataset, per position
  std::map<uint32_t, const Round*> first;
  for (const Round* r : rounds) {
    auto [it, fresh] = least.try_emplace(r->dataset, r->stmts.size(), 0.0);
    if (fresh) first[r->dataset] = r;
    for (size_t i = 0; i < r->stmts.size(); ++i) {
      const double s = r->stmts[i].wall_s;
      it->second[i] = fresh ? s : std::min(it->second[i], s);
    }
  }
  HostTimes out;
  for (const auto& [dataset, secs] : least) {
    const Round* r = first[dataset];
    for (size_t i = 0; i < secs.size(); ++i) {
      out.stream_s += secs[i];
      if (r->stmts[i].ok) out.ok_ms.push_back(secs[i] * 1e3);
    }
  }
  return out;
}

/// Per-OK-statement mean of `f` over `rounds`.
template <typename F>
double MeanOk(const std::vector<const Round*>& rounds, F f) {
  double sum = 0.0;
  uint64_t n = 0;
  for (const Round* r : rounds) {
    for (const StmtRecord& s : r->stmts) {
      if (!s.ok) continue;
      sum += static_cast<double>(f(s));
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

template <typename F>
double MaxOk(const std::vector<const Round*>& rounds, F f) {
  double best = 0.0;
  for (const Round* r : rounds) {
    for (const StmtRecord& s : r->stmts) {
      if (s.ok) best = std::max(best, static_cast<double>(f(s)));
    }
  }
  return best;
}

/// Mean over `rounds` of a per-stream quantity.
template <typename F>
double MeanRound(const std::vector<const Round*>& rounds, F f) {
  double sum = 0.0;
  for (const Round* r : rounds) sum += static_cast<double>(f(*r));
  return rounds.empty() ? 0.0 : sum / static_cast<double>(rounds.size());
}

double CategoryMs(const QueryMetrics& m, const char* category) {
  auto it = m.categories.find(category);
  return it == m.categories.end() ? 0.0
                                  : static_cast<double>(it->second) / 1e6;
}

/// Mean per-OK-statement duration (µs) of the spans named `name` (self
/// time when `self` is set); a traced statement was OK exactly when its
/// answer reached the oracle.
double SpanMeanUs(const Tracer& tracer, const char* name, bool self) {
  const auto& spans = tracer.spans();
  std::set<int64_t> ok;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "check.oracle") == 0) ok.insert(s.stmt);
  }
  const std::vector<int64_t> self_ns = tracer.SelfTimes();
  double sum_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    if (ok.count(spans[i].stmt) == 0) continue;
    sum_ns += static_cast<double>(self ? self_ns[i]
                                       : spans[i].end_ns - spans[i].start_ns);
  }
  return ok.empty() ? 0.0 : sum_ns / 1e3 / static_cast<double>(ok.size());
}

}  // namespace

void MetricSink::Add(std::string name, double value, std::string unit,
                     const std::string& note) {
  std::printf("  %-30s %18.6f %-12s%s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

std::string MetricSink::Json() const {
  std::string out;
  char buf[256];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    out += buf;
  }
  return "{" + out + "}";
}

void EndToEndMetrics(const RunRounds& rounds, MetricSink* out) {
  const HostTimes host = PositionHostTimes(rounds.metric);
  std::vector<double> setups, sim_ms;
  for (const Round* r : rounds.all) setups.push_back(r->setup_s());
  double sim_s = 0.0;
  uint64_t attempted = 0;
  for (const Round* r : rounds.exact) {
    attempted += r->stmts.size();
    for (const StmtRecord& s : r->stmts) {
      if (!s.ok) continue;
      sim_ms.push_back(static_cast<double>(s.m.total_ns) / 1e6);
      sim_s += static_cast<double>(s.m.total_ns) / 1e9;
    }
  }
  const double ok = static_cast<double>(sim_ms.size());
  out->Add("setup_s", Percentile(setups, 0.5), "s",
           "  (median of " + std::to_string(setups.size()) + " set-ups)");
  out->Add("ok_ratio", ok / static_cast<double>(attempted), "ratio");
  out->Add("ok_stmt_per_s", host.OkPerSecond(), "stmt/s",
           SampleNote(host.ok_ms.size()));
  out->Add("stmt_wall_p50_ms", Percentile(host.ok_ms, 0.5), "ms",
           SampleNote(host.ok_ms.size()));
  out->Add("stmt_wall_p90_ms", Percentile(host.ok_ms, 0.9), "ms",
           SampleNote(host.ok_ms.size()));
  out->Add("sim_stmt_p50_ms", Percentile(sim_ms, 0.5), "sim-ms",
           SampleNote(sim_ms.size()));
  out->Add("sim_stmt_p90_ms", Percentile(sim_ms, 0.9), "sim-ms",
           SampleNote(sim_ms.size()));
  out->Add("sim_ok_stmt_per_sim_s", sim_s > 0.0 ? ok / sim_s : 0.0,
           "stmt/sim-s");
  out->Add("peak_rss_mb", ProcStatusMiB("VmHWM"), "MiB");
}

void PerLayerMetrics(const RunRounds& rounds, const Tracer& tracer,
                     const HostDiagnostics& host, MetricSink* out) {
  const std::vector<const Round*>& exact = rounds.exact;
  auto mean = [&](auto f) { return MeanOk(exact, f); };
  auto cat = [&](const char* c) {
    return mean([&](const StmtRecord& s) { return CategoryMs(s.m, c); });
  };

  // sql / plan / untrusted / core: host µs per OK statement (traced
  // rounds); cache outcomes from the metric rounds.
  out->Add("sql.parse_bind_us",
           SpanMeanUs(tracer, "sql.parse", false) +
               SpanMeanUs(tracer, "sql.bind", false),
           "us");
  out->Add("plan.prepare_us", SpanMeanUs(tracer, "plan.prepare", false), "us");
  double hits = 0.0, lookups = 0.0;
  for (const Round* r : exact) {
    for (const StmtRecord& s : r->stmts) {
      if (!s.ok) continue;
      hits += static_cast<double>(s.m.plan_cache_hits);
      lookups += static_cast<double>(s.m.plan_cache_hits +
                                     s.m.plan_cache_misses +
                                     s.m.plan_cache_replans);
    }
  }
  out->Add("plan.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
           "ratio");
  out->Add("plan.cache_evictions",
           MeanRound(exact, [](const Round& r) { return r.cache_evictions; }),
           "count");
  out->Add("untrusted.prefetch_us",
           SpanMeanUs(tracer, "untrusted.prefetch", false), "us");
  out->Add("core.query_us", SpanMeanUs(tracer, "core.query", false), "us");
  out->Add("core.query_self_us", SpanMeanUs(tracer, "core.query", true),
           "us");

  // exec QEP_SJ.
  out->Add("sim.merge_ms", cat("merge"), "sim-ms");
  out->Add("sim.sjoin_ms", cat("sjoin"), "sim-ms");
  out->Add("sim.store_ms", cat("store"), "sim-ms");
  out->Add("sim.post_select_ms", cat("post-select"), "sim-ms");
  out->Add("sim.project_ms", cat("project"), "sim-ms");
  out->Add("exec.qepsj_rows",
           mean([](const StmtRecord& s) { return s.m.qepsj_rows; }), "rows");
  out->Add("exec.merge_rounds",
           mean([](const StmtRecord& s) { return s.m.merge.reduction_rounds; }),
           "count");
  out->Add("exec.bloom_fpr_max",
           MaxOk(exact,
                 [](const StmtRecord& s) { return s.m.bloom_fpr_estimate; }),
           "ratio");

  // exec relational tail.
  out->Add("sim.other_ms", cat("other"), "sim-ms");
  out->Add("exec.spill_runs",
           mean([](const StmtRecord& s) { return s.m.sort_spill_runs; }),
           "count");
  out->Add("exec.spill_pages",
           mean([](const StmtRecord& s) { return s.m.sort_spill_pages; }),
           "pages");
  out->Add("exec.topk_short_circuits",
           mean([](const StmtRecord& s) { return s.m.topk_short_circuits; }),
           "rows");
  out->Add("exec.result_rows",
           mean([](const StmtRecord& s) { return s.m.result_rows; }), "rows");
  out->Add("exec.peak_ram_buffers",
           MaxOk(exact,
                 [](const StmtRecord& s) { return s.m.peak_ram_buffers; }),
           "buffers");

  // exec VolumePad.
  out->Add("sim.padding_ms", cat("padding"), "sim-ms");
  out->Add("exec.padding_rows",
           mean([](const StmtRecord& s) { return s.m.padding_rows; }), "rows");
  const double observed =
      mean([](const StmtRecord& s) { return s.m.observed_volume; });
  const double rows = mean([](const StmtRecord& s) { return s.m.result_rows; });
  out->Add("exec.observed_volume_ratio", rows > 0 ? observed / rows : 0.0,
           "ratio");

  // device channel.
  out->Add("sim.comm_ms", cat("comm"), "sim-ms");
  out->Add("channel.kb_to_secure", mean([](const StmtRecord& s) {
             return static_cast<double>(s.m.bytes_to_secure) / 1024.0;
           }),
           "KiB");
  out->Add("channel.kb_to_untrusted", mean([](const StmtRecord& s) {
             return static_cast<double>(s.m.bytes_to_untrusted) / 1024.0;
           }),
           "KiB");
  out->Add("channel.msgs",
           mean([](const StmtRecord& s) { return s.channel_msgs; }), "msgs");
  out->Add("channel.transcript_msgs_end",
           MeanRound(exact, [](const Round& r) { return r.transcript_end; }),
           "msgs");

  // flash.
  out->Add("flash.pages_read",
           mean([](const StmtRecord& s) { return s.m.flash.pages_read; }),
           "pages");
  out->Add("flash.pages_written",
           mean([](const StmtRecord& s) { return s.m.flash.pages_written; }),
           "pages");
  out->Add("flash.gc_page_copies",
           mean([](const StmtRecord& s) { return s.m.flash.gc_page_copies; }),
           "pages");
  out->Add("flash.blocks_erased",
           mean([](const StmtRecord& s) { return s.m.flash.blocks_erased; }),
           "blocks");

  // crypto.
  out->Add("crypto.kb_per_stmt", mean([](const StmtRecord& s) {
             return static_cast<double>(s.m.flash.bytes_transferred) / 1024.0;
           }),
           "KiB");
  out->Add("crypto.chacha20_mb_per_s", host.chacha20_mb_per_s, "MB/s");

  // storage: per stream, mean over the run's datasets.
  out->Add("storage.alloc_failures",
           MeanRound(exact, [](const Round& r) { return r.alloc_failures; }),
           "count");
  out->Add("storage.first_exhausted_stmt",
           MeanRound(exact, [](const Round& r) { return r.first_exhausted; }),
           "stmt");
  out->Add("storage.used_pages_drift", MeanRound(exact, [](const Round& r) {
             int64_t drift = 0;
             for (const StmtRecord& s : r.stmts) {
               drift = std::max(drift, s.used_pages_drift);
             }
             return drift;
           }),
           "pages");

  // core fleet: max / mean per-shard clock advance per statement.
  out->Add("fleet.leg_sim_skew", mean([](const StmtRecord& s) {
             double sum = 0.0, best = 0.0;
             for (SimNanos ns : s.shard_advance) {
               sum += static_cast<double>(ns);
               best = std::max(best, static_cast<double>(ns));
             }
             const double avg =
                 sum / static_cast<double>(s.shard_advance.size());
             return avg > 0.0 ? best / avg : 1.0;
           }),
           "ratio");

  // core loader: medians over every round's set-up.
  std::vector<double> stage, build;
  for (const Round* r : rounds.all) {
    stage.push_back(r->stage_s);
    build.push_back(r->build_s);
  }
  out->Add("setup.stage_s", Percentile(stage, 0.5), "s");
  out->Add("setup.build_s", Percentile(build, 0.5), "s");

  // host.
  out->Add("host.calib_ms", (host.calib_before_ms + host.calib_after_ms) / 2,
           "ms");
  out->Add("host.rss_growth_mb",
           exact.front()->rss_end_mb - exact.front()->rss_after_setup_mb,
           "MiB");
  const double traced = PositionHostTimes(rounds.traced).OkPerSecond();
  const double untraced = PositionHostTimes(rounds.metric).OkPerSecond();
  out->Add("trace.overhead_ratio", untraced > 0 ? traced / untraced : 0.0,
           "ratio");
}

double CalibrationMs() {
  volatile uint64_t sink = 0;
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    uint64_t x = 88172645463325252ull ^ sink;
    for (int i = 0; i < 8'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return Percentile(ms, 0.5);
}

double ChaChaMbPerSecond(Tracer* tracer) {
  uint8_t key[ghostdb::crypto::ChaCha20::kKeySize];
  uint8_t nonce[ghostdb::crypto::ChaCha20::kNonceSize];
  for (size_t i = 0; i < sizeof(key); ++i) key[i] = static_cast<uint8_t>(7 * i);
  for (size_t i = 0; i < sizeof(nonce); ++i) nonce[i] = static_cast<uint8_t>(i);
  const ghostdb::crypto::ChaCha20 cipher(key, nonce);
  std::vector<uint8_t> page(2048, 0x5a);
  constexpr int kPages = 2048;  // 4 MiB per timing
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const int32_t span = tracer->Begin("crypto.chacha20", -1, -1);
    auto t0 = Clock::now();
    for (int p = 0; p < kPages; ++p) {
      // Per-page block counters, as flash pages are (de)ciphered.
      cipher.Crypt(page.data(), page.size(), static_cast<uint32_t>(p) * 32);
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    tracer->End(span);
    rates.push_back(static_cast<double>(kPages) * 2048.0 / 1e6 / secs);
  }
  volatile uint8_t sink = page[0];
  (void)sink;
  return Percentile(rates, 0.5);
}

}  // namespace perfbench
