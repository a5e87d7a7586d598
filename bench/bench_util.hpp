// Shared helpers for the figure/table reproduction harnesses.
//
// Each bench binary prints the same rows/series its paper figure reports,
// using deterministic virtual time. Keep the output plain and columnar so
// EXPERIMENTS.md can quote it directly.
//
// Measurements flow through the process-wide obs::MetricsRegistry: a bench
// observes every repetition into a named histogram (`series()`) and renders
// table cells from the registry (`fmt_series`), so the numbers printed are
// exactly the ones `dump_json()` would export.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace ps::bench {

/// The flags every figure/table harness shares. Parsed once by
/// parse_args(); the same struct also names the bench for the JSON
/// reporter, so main() ends with a single finish(args) call.
struct Args {
  std::string bench_name;
  std::string trace_path;       // --trace <file>: Perfetto span export
  std::string json_path;        // --json <file>: BENCH_<name>.json artifact
  std::uint64_t seed = ps::Rng::kDefaultSeed;  // --seed <n>
  int reps = 0;                 // --reps <n>; 0 keeps the bench default
  std::size_t max_size = 0;     // --max-size <bytes|1MB>; 0 = uncapped
  // Load-shaping knobs shared by every harness (the load_* generators are
  // the primary consumers; figure benches may map them onto their own
  // fan-out/duration notions or ignore them).
  int clients = 0;              // --clients <n>; 0 keeps the bench default
  double duration_s = 0.0;      // --duration <vtime s>; 0 = bench default

  int reps_or(int fallback) const { return reps > 0 ? reps : fallback; }
  int clients_or(int fallback) const {
    return clients > 0 ? clients : fallback;
  }
  double duration_or(double fallback) const {
    return duration_s > 0.0 ? duration_s : fallback;
  }

  /// Drops payload sizes above --max-size (all of them when uncapped).
  std::vector<std::size_t> cap(std::vector<std::size_t> sizes) const {
    if (max_size == 0) return sizes;
    std::vector<std::size_t> kept;
    for (const std::size_t size : sizes) {
      if (size <= max_size) kept.push_back(size);
    }
    return kept;
  }
};

/// Per-series metadata registered by series(): measurement clock + units,
/// consumed by finish() when assembling the JSON artifact.
inline std::map<std::string, obs::SeriesMeta>& series_meta() {
  static std::map<std::string, obs::SeriesMeta> meta;
  return meta;
}

/// Parses the shared bench flags, enables metrics instrumentation, and —
/// when --trace or --json asks for an artifact — the span recorder (the
/// profile section of the JSON artifact is derived from recorded spans).
/// Call once at the top of main().
inline Args parse_args(const std::string& bench_name, int argc, char** argv) {
  Args args;
  args.bench_name = bench_name;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--trace" && has_value) {
      args.trace_path = argv[++i];
    } else if (flag == "--json" && has_value) {
      args.json_path = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--reps" && has_value) {
      args.reps = std::atoi(argv[++i]);
    } else if (flag == "--max-size" && has_value) {
      args.max_size = parse_size(argv[++i]);
    } else if (flag == "--clients" && has_value) {
      args.clients = std::atoi(argv[++i]);
    } else if (flag == "--duration" && has_value) {
      args.duration_s = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace out.json] [--json out.json] "
                   "[--seed n] [--reps n] [--max-size 1MB] "
                   "[--clients n] [--duration vtime_s]\n",
                   bench_name.c_str());
      std::exit(2);
    }
  }
  obs::set_enabled(true);
  if (!args.trace_path.empty() || !args.json_path.empty()) {
    obs::TraceRecorder::global().set_enabled(true);
  }
  return args;
}

/// Writes the recorded spans as a Chrome trace-event / Perfetto JSON
/// artifact when --trace gave a path.
inline void finish_trace(const std::string& path) {
  if (path.empty()) return;
  if (!obs::write_perfetto_trace(path)) {
    std::fprintf(stderr, "bench: cannot write trace to '%s'\n", path.c_str());
    return;
  }
  std::printf("\ntrace: wrote %zu spans to %s (open in ui.perfetto.dev)\n",
              obs::TraceRecorder::global().span_count(), path.c_str());
}

/// Emits the end-of-run artifacts parse_args() was asked for: the Perfetto
/// trace (--trace) and the machine-readable BENCH_<name>.json (--json) with
/// per-series statistics plus the top profile nodes. When the run tripped
/// the flight recorder (an SLO breach or a latency-watchdog anomaly), the
/// captured span ring is dumped next to the artifact as
/// <json_path>.flight.json so the forensic trace survives the run. Call
/// once before returning from main().
inline void finish(const Args& args) {
  finish_trace(args.trace_path);
  if (args.json_path.empty()) return;
  const obs::BenchArtifact artifact = obs::collect_bench_artifact(
      args.bench_name, args.seed, series_meta(), /*profile_top_n=*/10);
  if (!obs::write_bench_artifact(args.json_path, artifact)) {
    std::fprintf(stderr, "bench: cannot write artifact to '%s'\n",
                 args.json_path.c_str());
    std::exit(1);
  }
  std::printf("\nbench: wrote %zu series + %zu profile nodes to %s\n",
              artifact.series.size(), artifact.profile_top.size(),
              args.json_path.c_str());
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  if (flight.has_snapshot()) {
    const std::string flight_path = args.json_path + ".flight.json";
    const obs::FlightRecorder::Snapshot snap = flight.latest_or_live();
    if (obs::FlightRecorder::dump(flight_path, snap)) {
      std::printf("bench: flight recorder dumped %zu spans to %s (%s)\n",
                  snap.spans.size(), flight_path.c_str(),
                  snap.reason.c_str());
    } else {
      std::fprintf(stderr, "bench: cannot write flight dump to '%s'\n",
                   flight_path.c_str());
    }
  }
}

/// Named measurement series in the process-wide registry; `kind` declares
/// the clock the series is measured in ("vtime" series are deterministic
/// and diffed exactly by `psctl bench diff`; "wall" series get a noise
/// tolerance), `units` the sample unit ("s", or "ratio" for fractions).
/// Call obs::set_enabled(true) (parse_args does) once at bench startup so
/// store/connector instrumentation along the measured path records too.
inline obs::Histogram& series(const std::string& name,
                              const std::string& kind = "vtime",
                              const std::string& units = "s") {
  series_meta().emplace(name, obs::SeriesMeta{kind, units});
  return obs::MetricsRegistry::global().histogram(name);
}

/// Table cell for a registry series: mean over its repetitions, "-" when the
/// series is empty or unknown.
inline std::string fmt_series(const std::string& name);

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

/// obs::fmt_latency, with "-" for a negative (absent) value.
inline std::string fmt_seconds(double s) {
  return s < 0 ? "-" : obs::fmt_latency(s);
}

inline std::string fmt_series(const std::string& name) {
  const obs::Histogram* h =
      obs::MetricsRegistry::global().find_histogram(name);
  if (h == nullptr || h->count() == 0) return "-";
  return fmt_seconds(h->mean());
}

inline std::string fmt_mean_stdev(const Stats& stats) {
  char buf[64];
  const double m = stats.mean();
  if (m < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f±%.1f ms", m * 1e3,
                  stats.stdev() * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f±%.2f s", m, stats.stdev());
  }
  return buf;
}

inline std::string fmt_size(std::size_t bytes) {
  char buf[32];
  if (bytes < 1000) {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  } else if (bytes < 1000000) {
    std::snprintf(buf, sizeof(buf), "%zu KB", bytes / 1000);
  } else if (bytes < 1000000000) {
    std::snprintf(buf, sizeof(buf), "%zu MB", bytes / 1000000);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f GB",
                  static_cast<double>(bytes) / 1e9);
  }
  return buf;
}

}  // namespace ps::bench
