// perfbench: the repo benchmark.
//
//   perfbench --workload <proxy_hot|wan_kv|bulk_swarm> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics with the program's defaults
// (metrics on, TraceRecorder off). --trace 1 runs the workload once plain
// and once with the benchmark's own spans and allocation counting on, and
// reports per-layer metrics. Every op's output is checked; the last stdout
// line is one JSON object {correct, attempted, failed, metrics}. Exit code
// is 1 when any op failed its check, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"

namespace {

using pb::now_s;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--spans-out") {
        args.spans_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return args.selftest || !args.workload.empty();
}

double median(std::vector<double> values) {
  return pb::percentile(std::move(values), 50.0);
}

/// Human-readable lines, then the one-line JSON result (the last line).
int report(const pb::OpLog& log, const std::vector<Metric>& metrics) {
  std::printf("attempted %llu ops, failed %llu, error_rate %.6g\n",
              static_cast<unsigned long long>(log.attempted),
              static_cast<unsigned long long>(log.failed),
              log.attempted == 0 ? 0.0
                                 : static_cast<double>(log.failed) /
                                       static_cast<double>(log.attempted));
  for (const std::string& error : log.errors) {
    std::printf("error: %s\n", error.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = log.failed == 0 && log.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(log.attempted);
  json += ", \"failed\": " + std::to_string(log.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Wall metrics of one trial: a fresh workload instance run for a share of
/// the measured time. Instances differ in heap layout and the machine
/// drifts, so the reported figure is the median over trials.
struct Trial {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double tail_us = 0.0;
  double cpu_us_per_op = 0.0;
  double payload_mb_per_s = 0.0;
};

int run_end_to_end(const Args& args) {
  constexpr std::size_t kTrials = 5;
  // Set-up (testbed, servers, preload) is timed on a fixed number of
  // instances spread over the run, and its median reported.
  constexpr std::size_t kSetupsPerTrial = 6;
  std::vector<double> setups;
  const auto set_up = [&] {
    const double t0 = now_s();
    auto workload = pb::make_workload(args.workload, args.seed, /*traced=*/false);
    setups.push_back(now_s() - t0);
    return workload;
  };

  pb::OpLog total;
  std::vector<Trial> trials;
  std::vector<double> vt;
  double tail = 0.0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    for (std::size_t s = 1; s < kSetupsPerTrial; ++s) set_up();
    auto workload = set_up();
    const double cpu0 = pb::cpu_s();
    pb::OpLog log = workload->run(args.seconds / kTrials);
    const double cpu = pb::cpu_s() - cpu0;
    tail = workload->tail_percentile();
    const auto ops = static_cast<double>(log.attempted);
    trials.push_back(Trial{
        (ops - static_cast<double>(log.failed)) / log.window_s,
        log.wall_ns.percentile(50.0) / 1e3, log.wall_ns.percentile(tail) / 1e3,
        cpu * 1e6 / ops,
        static_cast<double>(log.payload_bytes) / 1e6 / log.window_s});
    std::printf("trial %zu: %.3f s window, %llu wall samples\n", t,
                log.window_s,
                static_cast<unsigned long long>(log.wall_ns.count()));
    if (t == 0) vt = workload->vtime_prefix_ms(log);
    total.merge_counts(log);
  }
  const auto median_of = [&](double Trial::*field) {
    std::vector<double> values;
    for (const Trial& trial : trials) values.push_back(trial.*field);
    return median(values);
  };

  std::printf("workload %s seed %llu: median of %zu trials (tail p%g), "
              "%zu vtime samples, %zu set-ups\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              kTrials, tail, vt.size(), setups.size());
  const std::vector<Metric> metrics = {
      {"ops_per_s", median_of(&Trial::ops_per_s), "1/s"},
      {"op_wall_p50_us", median_of(&Trial::p50_us), "us"},
      {"op_wall_tail_us", median_of(&Trial::tail_us), "us"},
      {"cpu_us_per_op", median_of(&Trial::cpu_us_per_op), "us"},
      {"payload_mb_per_s", median_of(&Trial::payload_mb_per_s), "MB/s"},
      {"op_vt_p50_ms", pb::percentile(vt, 50.0), "ms"},
      {"op_vt_tail_ms", pb::percentile(vt, tail), "ms"},
      {"peak_rss_mb", pb::peak_rss_mb(), "MB"},
      {"setup_s", median(setups), "s"},
  };
  return report(total, metrics);
}

/// Registry counters the per-layer counts are deltas of.
struct Counters {
  double rpc_requests = 0;
  double depth_count = 0;
  double depth_sum = 0;
  double swarm_chunks = 0;
  double swarm_repairs = 0;
  double allocs = 0;
  double alloc_bytes = 0;
  pb::CacheCounts cache;

  static Counters read(pb::Workload& workload) {
    ps::obs::MetricsRegistry& reg = ps::obs::MetricsRegistry::global();
    const ps::obs::Histogram& depth = reg.histogram("rpc.pipeline.depth");
    Counters c;
    c.rpc_requests = static_cast<double>(reg.counter("rpc.requests").value());
    c.depth_count = static_cast<double>(depth.count());
    c.depth_sum = depth.sum();
    c.swarm_chunks =
        static_cast<double>(reg.counter("swarm.chunks.fetched").value());
    c.swarm_repairs = static_cast<double>(reg.counter("swarm.repairs").value());
    c.allocs = static_cast<double>(pb::alloc::count());
    c.alloc_bytes = static_cast<double>(pb::alloc::bytes());
    c.cache = workload.cache_counts();
    return c;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_traced(const Args& args) {
  const double half = args.seconds / 2.0;
  double plain_ops_per_s = 0.0;
  {
    auto plain = pb::make_workload(args.workload, args.seed, /*traced=*/false);
    const pb::OpLog log = plain->run(half);
    plain_ops_per_s = static_cast<double>(log.attempted) / log.window_s;
  }

  auto workload = pb::make_workload(args.workload, args.seed, /*traced=*/true);
  const Counters before = Counters::read(*workload);
  pb::trace::reset();
  pb::trace::set_on(true);
  pb::alloc::set_counting(true);
  const pb::OpLog log = workload->run(half);
  pb::alloc::set_counting(false);
  pb::trace::set_on(false);
  const Counters after = Counters::read(*workload);
  const pb::trace::Aggregates spans = pb::trace::aggregate();
  if (!args.spans_out.empty()) {
    const std::size_t written = pb::trace::write(args.spans_out);
    std::printf("trace: wrote %zu spans to %s\n", written,
                args.spans_out.c_str());
  }

  // Layers the workload does not reach itself are timed on its own objects.
  const pb::ReplayInputs inputs = workload->replay_inputs();
  pb::trace::reset();
  pb::trace::set_on(true);
  pb::tour_layers(inputs);
  pb::trace::set_on(false);
  const pb::trace::Aggregates tour = pb::trace::aggregate();
  const auto pick = [&](pb::trace::Name n) -> const pb::trace::Agg& {
    return spans[n].count > 0 ? spans[n] : tour[n];
  };
  const auto mean = [&](pb::trace::Name n, double unit_ns) {
    const pb::trace::Agg& a = pick(n);
    return ratio(a.total_ns, static_cast<double>(a.count)) / unit_ns;
  };
  const auto self = [&](pb::trace::Name n, double unit_ns) {
    const pb::trace::Agg& a = pick(n);
    return ratio(a.self_ns, static_cast<double>(a.count)) / unit_ns;
  };
  const auto mb_per_s = [&](pb::trace::Name n) {
    const pb::trace::Agg& a = pick(n);
    return ratio(static_cast<double>(a.bytes), a.total_ns) * 1e3;
  };

  const auto ops = static_cast<double>(log.attempted);
  const double hits = after.cache.hits - before.cache.hits;
  const double misses = after.cache.misses - before.cache.misses;
  const auto swarm_gets = static_cast<double>(spans[pb::trace::kSwarmGet].count);
  using pb::trace::Name;
  constexpr double kUs = 1e3;
  constexpr double kMs = 1e6;
  constexpr double kNs = 1.0;
  const std::vector<Metric> metrics = {
      {"proxy.create_us", mean(pb::trace::kProxyCreate, kUs), "us"},
      {"proxy.serialize_us", mean(pb::trace::kProxySerialize, kUs), "us"},
      {"proxy.deserialize_us", mean(pb::trace::kProxyDeserialize, kUs), "us"},
      {"proxy.resolve_first_us", self(pb::trace::kProxyResolveFirst, kUs), "us"},
      {"proxy.deref_cached_ns", mean(pb::trace::kProxyDerefCached, kNs), "ns"},
      {"store.put_us", self(pb::trace::kStorePut, kUs), "us"},
      {"connector.local.get_us", mean(pb::trace::kLocalGet, kUs), "us"},
      {"connector.local.put_us", mean(pb::trace::kLocalPut, kUs), "us"},
      {"cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"cache.evictions_per_op",
       ratio(after.cache.evictions - before.cache.evictions, ops), "count"},
      {"cache.hit_ns", pb::replay_cache_hit_ns(inputs), "ns"},
      {"metrics.counter_lookup_ns", pb::replay_counter_lookup_ns(), "ns"},
      {"metrics.observe_ns", pb::replay_observe_ns(log.wall_ns.head_s()), "ns"},
      {"store.get_us", mean(pb::trace::kStoreGet, kUs), "us"},
      {"store.resolve_batch_us", self(pb::trace::kStoreResolveBatch, kUs), "us"},
      {"connector.redis.get_us", mean(pb::trace::kRedisGet, kUs), "us"},
      {"connector.redis.get_batch_us", mean(pb::trace::kRedisGetBatch, kUs), "us"},
      {"channel.transact_ns", pb::replay_channel_transact_ns(inputs), "ns"},
      {"rpc.requests_per_op",
       ratio(after.rpc_requests - before.rpc_requests, ops), "count"},
      {"rpc.pipeline_depth_mean",
       ratio(after.depth_sum - before.depth_sum,
             after.depth_count - before.depth_count),
       "count"},
      {"serde.encode_mb_per_s", mb_per_s(pb::trace::kSerdeEncode), "MB/s"},
      {"serde.decode_mb_per_s", mb_per_s(pb::trace::kSerdeDecode), "MB/s"},
      {"connector.swarm.get_ms", mean(pb::trace::kSwarmGet, kMs), "ms"},
      {"connector.swarm.put_ms", mean(pb::trace::kSwarmPut, kMs), "ms"},
      {"hash.sha256_mb_per_s", pb::replay_sha256_mb_per_s(inputs), "MB/s"},
      {"swarm.chunks_per_get",
       ratio(after.swarm_chunks - before.swarm_chunks, swarm_gets), "count"},
      {"swarm.repairs_per_get",
       ratio(after.swarm_repairs - before.swarm_repairs, swarm_gets), "count"},
      {"alloc.count_per_op", ratio(after.allocs - before.allocs, ops), "count"},
      {"alloc.bytes_per_op", ratio(after.alloc_bytes - before.alloc_bytes, ops),
       "B"},
      {"trace.overhead_ratio",
       ratio(ops / log.window_s, plain_ops_per_s), "ratio"},
  };
  std::printf("workload %s seed %llu (traced): %.3f s window, %llu ops; "
              "layers not reached by the workload timed by the layer tour:",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              log.window_s, static_cast<unsigned long long>(log.attempted));
  for (std::size_t n = 1; n < pb::trace::kNameCount; ++n) {
    if (spans[n].count == 0) {
      std::printf(" %s", pb::trace::name_of(static_cast<Name>(n)));
    }
  }
  std::printf("\n");
  return report(log, metrics);
}

// ---------------------------------------------------------------------------
// Self-test: exact percentiles, the negative output check and vtime
// determinism. Exit 0 when every check holds.
// ---------------------------------------------------------------------------

bool check(bool ok, const std::string& what) {
  std::printf("selftest: %-64s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  return ok;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

int selftest() {
  bool ok = true;
  pb::ExactSamples samples;
  std::vector<double> raw;
  for (int i = 100; i >= 1; --i) {
    samples.add(i);
    raw.push_back(i);
  }
  samples.add(5'000'000);  // past the per-nanosecond range
  raw.push_back(5'000'000);
  ok &= check(samples.percentile(50.0) == 51.0 && pb::percentile(raw, 50.0) == 51.0,
              "nearest-rank p50 of 1..100 + one outlier is 51");
  ok &= check(samples.percentile(99.0) == 100.0 && pb::percentile(raw, 99.0) == 100.0,
              "nearest-rank p99 is 100");
  ok &= check(samples.percentile(100.0) == 5e6 && pb::percentile(raw, 100.0) == 5e6,
              "p100 is the outlier");

  for (const char* name : {"proxy_hot", "wan_kv", "bulk_swarm"}) {
    auto clean = pb::make_workload(name, 7, false);
    const pb::OpLog good = clean->run(0.3);
    ok &= check(good.failed == 0 && good.attempted > 0,
                std::string(name) + ": every op passes its output check");
    auto wrong = pb::make_workload(name, 7, false);
    wrong->corrupt_expected();
    const pb::OpLog bad = wrong->run(0.3);
    ok &= check(bad.failed > 0 && bad.failed < bad.attempted,
                std::string(name) + ": a wrong expected fingerprint is counted (" +
                    std::to_string(bad.failed) + " of " +
                    std::to_string(bad.attempted) + ")");
    auto again = pb::make_workload(name, 7, false);
    const std::vector<double> first = clean->vtime_prefix_ms(good);
    const std::vector<double> second =
        again->vtime_prefix_ms(again->run(0.0));
    ok &= check(!first.empty() && same_bits(first, second),
                std::string(name) + ": same seed, bit-identical op vtime");
  }
  std::printf("selftest: %s\n", ok ? "all checks passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <proxy_hot|wan_kv|bulk_swarm> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  try {
    if (args.selftest) return selftest();
    if (!pb::is_workload(args.workload)) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    return args.trace ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
