// psctl — explore the simulated federation from the command line.
//
//   psctl connectors              list registered connector types + traits
//   psctl hosts                   list testbed hosts and their sites
//   psctl route <from> <to>       show the route between two hosts
//   psctl transfer <from> <to> <size>
//                                 estimate one-way transfer time for a
//                                 payload (e.g. `psctl transfer
//                                 midway2-login theta-login 100MB`)
//   psctl handshake <siteA-host> <siteB-host>
//                                 walk the Figure 4 peer handshake between
//                                 two fresh PS-endpoints and report costs
//   psctl metrics [--json|--prom] run an instrumented demo workload and dump
//                                 the metrics registry (table + one proxy
//                                 lifecycle's spans; JSON with --json;
//                                 Prometheus text format with --prom,
//                                 OpenMetrics-terminated with `# EOF`)
//   psctl metrics --sites [--json|--prom]
//                                 run a WAN mini-fleet with per-process
//                                 metrics scoping on, federate one
//                                 telemetry agent per site over the rpc
//                                 fabric, and print the per-site view
//                                 (--prom emits ps_* samples with a `site`
//                                 label). Self-checks that the per-site op
//                                 counts sum to the global series exactly;
//                                 exits 1 when attribution lost samples
//   psctl top [--interval N] [--once]
//                                 live per-site rolling table from the same
//                                 federated fleet: ops/s, trailing p99,
//                                 queue-wait gauge, and cache hit rate per
//                                 site, one table per scrape interval
//                                 (N virtual seconds, default 0.5; --once
//                                 prints a single slice)
//   psctl trace export <file>     run a fig5-style cross-site FaaS round trip
//                                 with distributed tracing on and write the
//                                 stitched trace as Chrome trace-event JSON
//                                 (open in https://ui.perfetto.dev)
//   psctl trace critical [--top N] [--json]
//                                 run the traced round trip and decompose the
//                                 slowest N trace roots (default 5) into
//                                 critical-path segments (wire-transfer,
//                                 serde, executor-queue, ...); exits 1 when
//                                 nothing was recorded or a decomposition
//                                 fails to sum back to its root window
//   psctl flight dump <file>      run the traced round trip, freeze the
//                                 trace ring with the flight recorder, and
//                                 write the snapshot as Perfetto-loadable
//                                 JSON with a top-level "flight" header
//   psctl profile [--folded <file>] [--wall]
//                                 run the same traced round trip and print
//                                 the span-derived call-tree profile
//                                 (self/total vtime + wall per node);
//                                 --folded writes flamegraph.pl-compatible
//                                 folded stacks (vtime by default, wall
//                                 with --wall)
//   psctl bench diff <baseline.json> <candidate.json> [--wall-tol <rel>]
//                                 compare two BENCH_*.json artifacts:
//                                 deterministic vtime series must match
//                                 exactly (count/mean/p50/p99/p999/max),
//                                 wall series tolerate <rel> (default 0.25)
//                                 relative slowdown, and a candidate
//                                 carrying any SLO breach fails; exits 1
//                                 on drift/regression/breach, 2 on parse
//                                 errors
//   psctl bench check <file>...   schema-validate BENCH_*.json artifacts;
//                                 any embedded series attribution must sum
//                                 to within 5% of the exemplar it explains
//   psctl slo [--json|--prom]     run the instrumented demo workload under
//                                 the default SLO set and print the verdict
//                                 report (objective, observed vs target
//                                 quantile, pass/breach/insufficient-data);
//                                 --prom emits ps_slo_status{objective=...}
//                                 gauges in Prometheus text format;
//                                 exits 1 when any objective is breached
//   psctl stream stats [--json]   run a two-broker ProxyStream demo (an
//                                 in-process queue topic with two consumers
//                                 and a cross-site kv topic with a lagging
//                                 consumer) and print per-topic publish/
//                                 deliver/consume counts and consumer lag
//                                 from the metrics registry (machine-
//                                 readable JSON with --json)
//   psctl swarm stats [--json]    resolve a chunked payload through a
//                                 four-replica SwarmConnector demo with one
//                                 corrupted chunk and one delayed source,
//                                 then print per-source chunks/bytes/
//                                 timeouts plus the repair and verification
//                                 summary counters (JSON with --json)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "connectors/endpoint.hpp"
#include "connectors/file.hpp"
#include "connectors/local.hpp"
#include "connectors/redis.hpp"
#include "core/connector.hpp"
#include "core/instrumented.hpp"
#include "core/proxy.hpp"
#include "core/store.hpp"
#include "endpoint/endpoint.hpp"
#include "faas/cloud.hpp"
#include "faas/executor.hpp"
#include "faas/registry.hpp"
#include "obs/context.hpp"
#include "obs/critical.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "kv/client.hpp"
#include "kv/server.hpp"
#include "load_util.hpp"
#include "relay/relay.hpp"
#include "serde/serde.hpp"
#include "sim/vtime.hpp"
#include "stream/kv_broker.hpp"
#include "stream/queue_broker.hpp"
#include "stream/stream.hpp"
#include "swarm/chaos.hpp"
#include "swarm/manifest.hpp"
#include "swarm/swarm.hpp"
#include "telemetry/agent.hpp"
#include "telemetry/aggregator.hpp"
#include "testbed/testbed.hpp"

using namespace ps;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: psctl <connectors|hosts|route|transfer|handshake|"
               "metrics|top|trace|profile|flight|bench|slo|stream|swarm> "
               "[args...]\n"
               "       psctl metrics [--sites] [--json|--prom]\n"
               "       psctl top [--interval <virtual-s>] [--once]\n"
               "       psctl trace export <file>\n"
               "       psctl trace critical [--top <n>] [--json]\n"
               "       psctl flight dump <file>\n"
               "       psctl profile [--folded <file>] [--wall]\n"
               "       psctl bench diff <baseline.json> <candidate.json> "
               "[--wall-tol <rel>]\n"
               "       psctl bench check <file>...\n"
               "       psctl slo [--json|--prom]\n"
               "       psctl stream stats [--json]\n"
               "       psctl swarm stats [--json]\n");
  return 2;
}

int cmd_connectors() {
  const auto types = core::ConnectorRegistry::instance().types();
  std::printf("%zu connector types registered:\n", types.size());
  for (const std::string& type : types) {
    std::printf("  %s\n", type.c_str());
  }
  return 0;
}

int cmd_hosts(testbed::Testbed& tb) {
  for (const std::string& host :
       {tb.theta_login, tb.theta_compute0, tb.theta_compute1,
        tb.polaris_login, tb.polaris_compute0, tb.polaris_compute1,
        tb.perlmutter_login, tb.perlmutter_compute, tb.midway_login,
        tb.frontera_login, tb.chameleon0, tb.chameleon1, tb.cloud,
        tb.relay_host, tb.remote_gpu, tb.edge_devices[0], tb.edge_devices[1],
        tb.edge_devices[2], tb.edge_devices[3]}) {
    const net::Host& h = tb.world->fabric().host(host);
    std::printf("  %-22s site=%-14s disk=%5.1f GB/s%s\n", host.c_str(),
                h.site.c_str(), h.disk_write_Bps / 1e9,
                tb.world->fabric().site(h.site).behind_nat ? "  [NAT]" : "");
  }
  return 0;
}

int cmd_route(testbed::Testbed& tb, const std::string& from,
              const std::string& to) {
  const net::Route route = tb.world->fabric().route(from, to);
  std::printf("route %s -> %s (%zu hop%s%s):\n", from.c_str(), to.c_str(),
              route.hops.size(), route.hops.size() == 1 ? "" : "s",
              route.requires_nat_traversal ? ", NAT traversal required" : "");
  for (const net::Hop& hop : route.hops) {
    std::printf("  %-20s -> %-20s  %7.2f ms  %6.2f GB/s  [%s]\n",
                hop.from.c_str(), hop.to.c_str(), hop.profile.latency_s * 1e3,
                hop.profile.bandwidth_Bps / 1e9,
                net::to_string(hop.profile.congestion).c_str());
  }
  std::printf("  rtt: %.2f ms\n", route.rtt() * 1e3);
  return 0;
}

int cmd_transfer(testbed::Testbed& tb, const std::string& from,
                 const std::string& to, const std::string& size_text) {
  const std::size_t bytes = parse_size(size_text);
  const double t = tb.world->fabric().transfer_time(from, to, bytes);
  std::printf("%s of payload %s -> %s: %.3f s  (%.2f MB/s effective)\n",
              size_text.c_str(), from.c_str(), to.c_str(), t,
              static_cast<double>(bytes) / t / 1e6);
  return 0;
}

int cmd_handshake(testbed::Testbed& tb, const std::string& host_a,
                  const std::string& host_b) {
  auto relay = relay::RelayServer::start(*tb.world, tb.relay_host, "psctl");
  auto ep_a = endpoint::Endpoint::start(
      *tb.world, host_a, "psctl-a", "relay://" + tb.relay_host + "/psctl");
  auto ep_b = endpoint::Endpoint::start(
      *tb.world, host_b, "psctl-b", "relay://" + tb.relay_host + "/psctl");
  proc::Process& driver = tb.world->spawn("psctl", host_a);
  proc::ProcessScope scope(driver);
  sim::VtimeScope vt;
  ep_a->handle(endpoint::EndpointRequest{.op = "exists",
                                         .object_id = "probe",
                                         .endpoint_id = ep_b->uuid(),
                                         .data = {}});
  std::printf("peer connection %s <-> %s established\n", host_a.c_str(),
              host_b.c_str());
  std::printf("  relay (%s) forwarded %llu signaling messages\n",
              tb.relay_host.c_str(),
              static_cast<unsigned long long>(relay->forwarded_count()));
  std::printf("  handshake + first forwarded request: %.1f ms\n",
              vt.elapsed() * 1e3);
  sim::VtimeScope warm;
  ep_a->handle(endpoint::EndpointRequest{.op = "exists",
                                         .object_id = "probe",
                                         .endpoint_id = ep_b->uuid(),
                                         .data = {}});
  std::printf("  warm forwarded request: %.1f ms\n", warm.elapsed() * 1e3);
  return 0;
}

// Runs one fig5-style FaaS round trip across two sites with distributed
// tracing on — proxy minted at the client against an EndpointStore, task
// submitted through the cloud, the remote worker resolving the proxy back
// through peered PS-endpoints (relay handshake included). All spans land
// in the global TraceRecorder for export (trace export) or aggregation
// (profile).
int run_traced_round_trip(testbed::Testbed& tb) {
  obs::set_enabled(true);
  obs::TraceRecorder::global().set_enabled(true);

  faas::FunctionRegistry::instance().register_function(
      "psctl-trace-task", [](BytesView request) {
        auto proxy = serde::from_bytes<core::Proxy<Bytes>>(request);
        return serde::to_bytes<std::uint64_t>(proxy->size());
      });

  const std::string& client_host = tb.theta_compute0;  // site ALCF
  const std::string& task_host = tb.midway_login;      // site UChicago
  proc::Process& client = tb.world->spawn("psctl-client", client_host);
  proc::Process& worker = tb.world->spawn("psctl-gc-endpoint", task_host);

  auto cloud = faas::CloudService::start(*tb.world, tb.cloud);
  faas::ComputeEndpoint gc_endpoint(cloud, worker);

  relay::RelayServer::start(*tb.world, tb.relay_host, "psctl-trace");
  auto ep_client = endpoint::Endpoint::start(
      *tb.world, client_host, "psctl-ep-client",
      "relay://" + tb.relay_host + "/psctl-trace");
  auto ep_task = endpoint::Endpoint::start(
      *tb.world, task_host, "psctl-ep-task",
      "relay://" + tb.relay_host + "/psctl-trace");

  {
    proc::ProcessScope scope(client);
    auto store = std::make_shared<core::Store>(
        "psctl-trace",
        std::make_shared<connectors::EndpointConnector>(
            std::vector<std::string>{
                endpoint::endpoint_address(client_host, "psctl-ep-client"),
                endpoint::endpoint_address(task_host, "psctl-ep-task")}));
    core::register_store(store, /*overwrite=*/true);
    // One root span ties the whole round trip into a single trace.
    obs::SpanScope root("psctl.round_trip");
    core::Proxy<Bytes> proxy = store->proxy(Bytes(1 << 20, 'x'));
    faas::Executor executor(cloud, gc_endpoint.uuid());
    auto future = executor.submit("psctl-trace-task", serde::to_bytes(proxy));
    const auto resolved_size = serde::from_bytes<std::uint64_t>(future.get());
    if (resolved_size != (1u << 20)) {
      std::fprintf(stderr, "psctl: trace demo task returned wrong size\n");
      return 1;
    }
  }
  gc_endpoint.stop();
  return 0;
}

// `psctl trace export <file>`: the traced round trip written as a Chrome
// trace-event / Perfetto JSON file.
int cmd_trace_export(testbed::Testbed& tb, const std::string& path) {
  if (const int rc = run_traced_round_trip(tb); rc != 0) return rc;

  if (!obs::write_perfetto_trace(path)) {
    std::fprintf(stderr, "psctl: cannot write trace to '%s'\n", path.c_str());
    return 1;
  }
  const auto spans = obs::TraceRecorder::global().spans();
  std::set<std::string> traces;
  std::set<std::string> sites;
  for (const obs::SpanRecord& span : spans) {
    traces.insert(span.ctx.trace_id_hex());
    sites.insert(span.site);
  }
  std::printf("wrote %zu spans (%zu trace%s, %zu site%s) to %s\n",
              spans.size(), traces.size(), traces.size() == 1 ? "" : "s",
              sites.size(), sites.size() == 1 ? "" : "s", path.c_str());
  std::printf("open in https://ui.perfetto.dev or chrome://tracing\n");
  return 0;
}

// `psctl trace critical [--top N] [--json]`: the traced round trip
// decomposed into per-trace critical-path segments. Each report is
// self-checked — the segment shares must reconstruct the root's window (the
// analyzer's exact-sum invariant) — so a nonzero exit means either nothing
// was traced or the decomposition is broken.
int cmd_trace_critical(testbed::Testbed& tb, std::size_t top_n, bool json) {
  if (const int rc = run_traced_round_trip(tb); rc != 0) return rc;

  const obs::CriticalPath paths =
      obs::CriticalPath::from_recorder(obs::TraceRecorder::global());
  const std::vector<obs::CriticalPathReport> top = paths.top(top_n);
  if (top.empty()) {
    std::fprintf(stderr, "psctl: no trace roots recorded\n");
    return 1;
  }
  for (const obs::CriticalPathReport& report : top) {
    const double tolerance = std::max(1e-9, 0.01 * report.vtime_s);
    if (std::fabs(report.attributed_s - report.vtime_s) > tolerance) {
      std::fprintf(stderr,
                   "psctl: attribution for trace %s sums to %.9f s but the "
                   "root window is %.9f s\n",
                   report.trace_id.c_str(), report.attributed_s,
                   report.vtime_s);
      return 1;
    }
  }
  if (json) {
    std::printf("%s\n", obs::CriticalPath::json(top).c_str());
  } else {
    std::printf("%s", obs::CriticalPath::table(top).c_str());
    std::printf("\n%zu of %zu trace roots shown (slowest first)\n",
                top.size(), paths.reports().size());
  }
  return 0;
}

// `psctl flight dump <file>`: the traced round trip's trace ring frozen by
// the flight recorder and written as a Perfetto-loadable dump.
int cmd_flight_dump(testbed::Testbed& tb, const std::string& path) {
  if (const int rc = run_traced_round_trip(tb); rc != 0) return rc;

  const obs::FlightRecorder::Snapshot snap =
      obs::FlightRecorder::global().snapshot("psctl flight dump");
  if (snap.spans.empty()) {
    std::fprintf(stderr, "psctl: flight recorder is empty\n");
    return 1;
  }
  if (!obs::FlightRecorder::dump(path, snap)) {
    std::fprintf(stderr, "psctl: cannot write flight dump to '%s'\n",
                 path.c_str());
    return 1;
  }
  std::printf(
      "flight dump: %zu spans (%zu dropped by trace cap) to %s\n",
      snap.spans.size(),
      static_cast<std::size_t>(obs::TraceRecorder::global().dropped_spans()),
      path.c_str());
  std::printf("open in https://ui.perfetto.dev or chrome://tracing\n");
  return 0;
}

// `psctl profile`: the traced round trip aggregated into a call-tree
// profile — per-path invocation counts plus total/self time in both the
// deterministic virtual clock and wall clock. --folded additionally writes
// flamegraph.pl-compatible folded stacks.
int cmd_profile(testbed::Testbed& tb, const std::string& folded_path,
                bool wall) {
  if (const int rc = run_traced_round_trip(tb); rc != 0) return rc;

  const obs::Profile profile =
      obs::Profile::from_recorder(obs::TraceRecorder::global());
  if (profile.empty()) {
    std::fprintf(stderr, "psctl: no spans recorded\n");
    return 1;
  }
  std::printf("%s", profile.table().c_str());
  std::printf("\ntotal traced: %.6f s vtime, %.6f s wall\n",
              profile.total_vtime_s(), profile.total_wall_s());

  if (!folded_path.empty()) {
    std::ofstream file(folded_path, std::ios::binary | std::ios::trunc);
    if (!file) {
      std::fprintf(stderr, "psctl: cannot write '%s'\n", folded_path.c_str());
      return 1;
    }
    file << profile.folded(/*vtime=*/!wall);
    std::printf("folded stacks (%s clock) written to %s — feed to "
                "flamegraph.pl\n",
                wall ? "wall" : "vtime", folded_path.c_str());
  }
  return 0;
}

// `psctl bench check <file>...`: parse (and thereby schema-validate) each
// artifact. Any series carrying a v3 attribution block must explain its
// exemplar: the segment shares have to sum to within 5% of the sample the
// exemplar recorded. Exits nonzero on the first invalid file.
int cmd_bench_check(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    std::string error;
    const auto artifact = obs::read_bench_artifact(path, &error);
    if (!artifact) {
      std::fprintf(stderr, "psctl: %s: %s\n", path.c_str(), error.c_str());
      return 2;
    }
    std::size_t attributed = 0;
    for (const auto& [name, stats] : artifact->series) {
      if (!stats.attribution) continue;
      ++attributed;
      const obs::SeriesAttribution& attr = *stats.attribution;
      const double tolerance = 0.05 * attr.sample_s;
      if (std::fabs(attr.attributed_s - attr.sample_s) > tolerance) {
        std::fprintf(stderr,
                     "psctl: %s: series '%s' attribution sums to %.9f s but "
                     "its exemplar sample is %.9f s (>5%% apart)\n",
                     path.c_str(), name.c_str(), attr.attributed_s,
                     attr.sample_s);
        return 2;
      }
    }
    std::printf("%s: ok (bench=%s, schema v%d, %zu series, %zu attributed, "
                "%zu slos, %zu profile nodes)\n",
                path.c_str(), artifact->bench.c_str(),
                artifact->schema_version, artifact->series.size(), attributed,
                artifact->slos.size(), artifact->profile_top.size());
  }
  return 0;
}

// `psctl bench diff <baseline> <candidate>`: the perf-regression gate.
int cmd_bench_diff(const std::string& base_path, const std::string& cand_path,
                   double wall_tol) {
  std::string error;
  const auto baseline = obs::read_bench_artifact(base_path, &error);
  if (!baseline) {
    std::fprintf(stderr, "psctl: %s: %s\n", base_path.c_str(), error.c_str());
    return 2;
  }
  const auto candidate = obs::read_bench_artifact(cand_path, &error);
  if (!candidate) {
    std::fprintf(stderr, "psctl: %s: %s\n", cand_path.c_str(), error.c_str());
    return 2;
  }
  if (baseline->bench != candidate->bench) {
    std::fprintf(stderr, "psctl: artifact mismatch: baseline is '%s', "
                 "candidate is '%s'\n",
                 baseline->bench.c_str(), candidate->bench.c_str());
    return 2;
  }

  obs::DiffOptions options;
  if (wall_tol >= 0) options.wall_rel_tol = wall_tol;
  const obs::DiffResult result =
      obs::diff_bench_artifacts(*baseline, *candidate, options);

  std::printf("bench diff [%s]: %s vs %s\n", baseline->bench.c_str(),
              base_path.c_str(), cand_path.c_str());
  for (const obs::SeriesDelta& delta : result.deltas) {
    if (delta.verdict == "ok") continue;  // keep the report focused
    std::printf("  %-10s %-7s %-48s base=%.9g cand=%.9g (%+.1f%%)\n",
                delta.verdict.c_str(), delta.kind.c_str(),
                delta.name.c_str(), delta.base_mean_s, delta.cand_mean_s,
                100.0 * delta.rel_delta);
  }
  for (const obs::SloResult& slo : result.slo_breaches) {
    std::printf("  slo breach %-44s %s(%s) observed=%.9g target=%.9g "
                "(%llu samples)\n",
                slo.name.c_str(), slo.percentile.c_str(), slo.metric.c_str(),
                slo.observed_s, slo.threshold_s,
                static_cast<unsigned long long>(slo.samples));
  }
  std::printf("%s\n", result.summary.c_str());
  return result.failed ? 1 : 0;
}

// Exercises instrumented local- and file-connector stores (puts, gets,
// exists, batched/async resolves) and a cross-site proxy resolve through a
// kv store, so the registry and trace recorder have something to show.
// Returns nonzero on a demo failure; on success `subject` (when non-null)
// receives the trace subject of the demo proxy whose lifecycle landed in
// the recorder.
int run_instrumented_demo(testbed::Testbed& tb, std::string* subject_out) {
  obs::set_enabled(true);
  obs::TraceRecorder::global().set_enabled(true);

  proc::Process& producer = tb.world->spawn("psctl-prod", tb.theta_compute0);
  proc::Process& consumer = tb.world->spawn("psctl-cons", tb.midway_login);

  const std::filesystem::path file_dir =
      std::filesystem::temp_directory_path() / "psctl-metrics-demo";

  std::string subject;  // trace subject of the demo proxy
  {
    proc::ProcessScope scope(producer);
    auto local = std::make_shared<core::Store>(
        "psctl-local", core::InstrumentedConnector::wrap(
                           std::make_shared<connectors::LocalConnector>()));
    auto file = std::make_shared<core::Store>(
        "psctl-file", core::InstrumentedConnector::wrap(
                          std::make_shared<connectors::FileConnector>(
                              file_dir)));
    core::register_store(local, /*overwrite=*/true);
    core::register_store(file, /*overwrite=*/true);
    for (auto& store : {local, file}) {
      for (int i = 0; i < 16; ++i) {
        const std::string value(std::size_t{1} << (8 + i % 8), 'x');
        const core::Key key = store->put(value);
        store->get<std::string>(key);
        store->get<std::string>(key);  // cache hit
        store->exists(key);
        if (i % 4 == 0) store->evict(key);
      }
      // Miss probe: bypasses the object cache, so the connector-level
      // exists counter is exercised too.
      store->exists(core::Key{.object_id = "no-such-object", .meta = {}});
    }

    // Async path: a batched resolve and async proxy resolves, so the
    // async.executor.* queue/saturation metrics and the per-connector
    // get_batch series have data. Each file-store proxy's resolve_async is
    // an executor job that reads a file the file store wrote, so each job
    // pays a disk read and demo.async.service.p99 has samples.
    {
      std::vector<std::string> values(8, std::string(1024, 'a'));
      const std::vector<core::Key> keys = local->put_batch(values);
      local->resolve_batch<std::string>(keys);
      const std::vector<core::Proxy<std::string>> reads =
          file->proxy_batch(values);
      for (const auto& read : reads) read.resolve_async();
      for (const auto& read : reads) {
        if (read.resolve() != values.front()) {
          std::fprintf(stderr, "psctl: demo file read missed\n");
          return 1;
        }
      }
      core::Proxy<std::string> warm =
          local->proxy(std::string("async-demo"));
      warm.resolve_async();
      warm.resolve();
    }

    // Wire pipelining: a ladder of overlapping kv requests on one channel,
    // so the rpc.inflight / rpc.pipeline.depth wire metrics report real
    // in-flight depth (sync round trips alone never exceed depth 1).
    {
      kv::KvServer::start(*tb.world, tb.theta_compute0, "psctl-rpc-demo");
      kv::KvClient rpc_demo(
          kv::kv_address(tb.theta_compute0, "psctl-rpc-demo"));
      rpc_demo.set("warm", std::string(256, 'r'));
      std::vector<core::Future<std::vector<std::optional<Bytes>>>> ladder;
      ladder.reserve(8);
      for (int i = 0; i < 8; ++i) {
        ladder.push_back(rpc_demo.get_many_async({"warm"}));
      }
      for (auto& pending : ladder) pending.wait();
    }

    // One proxy minted on the kv server above and resolved in a different
    // simulated process: the consumer on another site pays a WAN round
    // trip, and the lifecycle spans (store.proxy -> proxy.resolve ->
    // store.cache.probe -> store.fetch -> store.deserialize) land in the
    // trace recorder under one trace.
    auto kv_store = std::make_shared<core::Store>(
        "psctl-kv", std::make_shared<connectors::RedisConnector>(
                        kv::kv_address(tb.theta_compute0, "psctl-rpc-demo")));
    core::Proxy<std::string> p =
        kv_store->proxy(std::string("traced-object"));
    subject = core::trace_subject(kv_store->name(),
                                  p.factory().descriptor()->key);
    const Bytes wire = serde::to_bytes(p);
    {
      proc::ProcessScope remote(consumer);
      auto q = serde::from_bytes<core::Proxy<std::string>>(wire);
      if (*q != "traced-object") {
        std::fprintf(stderr, "psctl: demo proxy resolved to wrong value\n");
        return 1;
      }
    }
  }
  std::filesystem::remove_all(file_dir);
  if (subject_out != nullptr) *subject_out = subject;
  return 0;
}

// ---- federated telemetry commands (metrics --sites, top) -----------------
//
// Shared WAN mini-fleet: a hot-key kv workload over five client sites with
// per-process metrics scoping on, one TelemetryAgent per site, and a
// monitor process scraping every agent over the rpc fabric once per virtual
// slice. Deterministic (fixed seed, virtual clocks), so the conservation
// self-check can demand exact equality.
struct FederatedRun {
  telemetry::TelemetryAggregator aggregator;
  std::vector<std::shared_ptr<telemetry::TelemetryAgent>> agents;
  std::uint64_t global_ops = 0;  // whole-run count of the driving series
};

void run_federated_fleet(testbed::Testbed& tb, int slices, double slice_s,
                         FederatedRun& run,
                         const std::function<void(int)>& after_slice) {
  obs::set_enabled(true);
  proc::World& world = *tb.world;
  world.set_metrics_scoping(true);

  const std::vector<std::string> hosts = {
      tb.theta_compute0, tb.polaris_compute0, tb.perlmutter_compute,
      tb.chameleon0, tb.midway_login};
  kv::KvServer::start(world, tb.theta_login, "psctl-top");
  proc::Process& admin = world.spawn("psctl-top-admin", tb.theta_login);
  std::shared_ptr<core::Store> store;
  std::vector<core::Key> keys;
  {
    proc::ProcessScope scope(admin);
    // A small object cache (smaller than the key set) keeps both cache
    // hits and connector fetches in play, so the hit-rate column moves.
    store = std::make_shared<core::Store>(
        "psctl-top",
        std::make_shared<connectors::RedisConnector>(
            kv::kv_address(tb.theta_login, "psctl-top")),
        core::Store::Options{.cache_size = 16});
    core::register_store(store, /*overwrite=*/true);
    std::vector<Bytes> values;
    for (int k = 0; k < 32; ++k) {
      values.push_back(pattern_bytes(2048, 1000 + k));
    }
    keys = store->put_batch(values);
  }

  std::map<std::string, std::string> site_hosts;
  for (const std::string& host : hosts) {
    site_hosts.emplace(world.fabric().host(host).site, host);
  }
  for (const auto& [site, host] : site_hosts) {
    run.agents.push_back(telemetry::TelemetryAgent::start(world, host));
    run.aggregator.add_agent(run.agents.back()->address());
  }
  proc::Process& monitor = world.spawn("psctl-monitor", tb.theta_login);

  bench::ClientFleet fleet(world, "psctl-top", hosts, /*count=*/64,
                           /*seed=*/42);
  fleet.stagger(0.002);
  fleet.set_site_series("psctl.op");
  obs::Histogram& lat = obs::MetricsRegistry::global().histogram("psctl.op");
  bench::Zipf zipf(keys.size(), 1.0);
  const bench::ClientFleet::Op op = [&](std::size_t, Rng& rng) {
    const std::size_t k = zipf.sample(rng);
    if (rng.bernoulli(0.10)) {
      keys[k] = store->put(pattern_bytes(2048, rng.next_u64()));
    } else if (!store->get<Bytes>(keys[k])) {
      throw Error("psctl: federated demo key vanished");
    }
  };
  const auto scrape = [&] {
      // Scrape from the monitor at the slice boundary without perturbing
      // the workload: the guard restores the driver clock afterwards.
      sim::VtimeGuard freeze;
      proc::ProcessScope scope(monitor);
      sim::vset(fleet.max_vnow());
      run.aggregator.scrape_all();
  };
  // Baseline scrape: seeds every site's window ring, so the first slice
  // already yields a delta window.
  scrape();
  for (int slice = 0; slice < slices; ++slice) {
    fleet.run_closed_loop_for(slice_s, /*think_s=*/0.020, lat, op,
                              /*think_jitter_s=*/0.010);
    scrape();
    if (after_slice) after_slice(slice);
  }
  run.global_ops = lat.count();
}

std::uint64_t counter_or_zero(const obs::RegistrySnapshot& registry,
                              const char* name) {
  const auto it = registry.counters.find(name);
  return it == registry.counters.end() ? 0 : it->second;
}

// `psctl metrics --sites`: the federated per-site registry view, plus the
// conservation self-check (scoping and federation must not lose samples).
int cmd_metrics_sites(testbed::Testbed& tb, bool json, bool prom) {
  FederatedRun run;
  run_federated_fleet(tb, /*slices=*/4, /*slice_s=*/0.5, run, nullptr);

  const std::map<std::string, obs::RegistrySnapshot> by_site =
      run.aggregator.registries_by_site();
  std::uint64_t site_ops = 0;
  for (const auto& [site, registry] : by_site) {
    const auto it = registry.histograms.find("psctl.op");
    if (it != registry.histograms.end()) site_ops += it->second.count;
  }
  if (site_ops != run.global_ops) {
    std::fprintf(stderr,
                 "psctl: per-site op counts sum to %llu but the global "
                 "series holds %llu — site attribution lost samples\n",
                 static_cast<unsigned long long>(site_ops),
                 static_cast<unsigned long long>(run.global_ops));
    return 1;
  }

  if (json) {
    std::printf("%s\n", obs::federated_metrics_json(by_site).c_str());
    return 0;
  }
  if (prom) {
    std::printf("%s", obs::federated_prometheus_text(by_site).c_str());
    return 0;
  }

  std::printf("federated metrics: %zu sites, %llu ops "
              "(per-site sum matches the global series exactly)\n\n",
              by_site.size(),
              static_cast<unsigned long long>(run.global_ops));
  std::printf("%-14s %8s %12s %12s %8s %8s %8s\n", "site", "ops", "p50",
              "p99", "gets", "puts", "cache%");
  for (const auto& [site, registry] : by_site) {
    std::uint64_t ops = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    const auto it = registry.histograms.find("psctl.op");
    if (it != registry.histograms.end()) {
      ops = it->second.count;
      p50 = it->second.p50();
      p99 = it->second.p99();
    }
    const std::uint64_t hits = counter_or_zero(registry, "store.cache.hits");
    const std::uint64_t misses =
        counter_or_zero(registry, "store.cache.misses");
    const double hit_pct =
        hits + misses == 0
            ? 0.0
            : 100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses);
    std::printf("%-14s %8llu %9.3f ms %9.3f ms %8llu %8llu %7.1f%%\n",
                site.c_str(), static_cast<unsigned long long>(ops),
                p50 * 1e3, p99 * 1e3,
                static_cast<unsigned long long>(
                    counter_or_zero(registry, "store.gets")),
                static_cast<unsigned long long>(
                    counter_or_zero(registry, "store.puts")),
                hit_pct);
  }
  const obs::RegistrySnapshot aggregate = run.aggregator.aggregate();
  const auto agg_it = aggregate.histograms.find("psctl.op");
  if (agg_it != aggregate.histograms.end()) {
    std::printf("%-14s %8llu %9.3f ms %9.3f ms %8llu %8llu\n", "aggregate",
                static_cast<unsigned long long>(agg_it->second.count),
                agg_it->second.p50() * 1e3, agg_it->second.p99() * 1e3,
                static_cast<unsigned long long>(
                    counter_or_zero(aggregate, "store.gets")),
                static_cast<unsigned long long>(
                    counter_or_zero(aggregate, "store.puts")));
  }
  std::printf("\nrun `psctl metrics --sites --prom` for ps_*{site=\"...\"} "
              "samples\n");
  return 0;
}

// `psctl top`: per-site rolling table out of the windowed telemetry — the
// trailing-interval view, not the whole run.
int cmd_top(testbed::Testbed& tb, double interval_s, bool once) {
  const int slices = once ? 1 : 4;
  FederatedRun run;
  run_federated_fleet(tb, slices, interval_s, run, [&](int slice) {
    std::printf("top — slice %d/%d, trailing %.2f virtual s per site:\n",
                slice + 1, slices, interval_s);
    std::printf("%-14s %10s %12s %12s %8s\n", "site", "ops/s", "p99",
                "queue_s", "cache%");
    for (const std::string& site : run.aggregator.sites()) {
      const obs::TelemetryWindows* windows = run.aggregator.windows(site);
      if (windows == nullptr) continue;
      const obs::RegistrySnapshot window = windows->merged_last(interval_s);
      std::uint64_t ops = 0;
      double p99 = 0.0;
      const auto it = window.histograms.find("psctl.op");
      if (it != window.histograms.end()) {
        ops = it->second.count;
        p99 = it->second.p99();
      }
      const auto queue = window.gauges.find("kv.client.queue_wait_s");
      const std::uint64_t hits = counter_or_zero(window, "store.cache.hits");
      const std::uint64_t misses =
          counter_or_zero(window, "store.cache.misses");
      const double hit_pct =
          hits + misses == 0
              ? 0.0
              : 100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses);
      std::printf("%-14s %10.1f %9.3f ms %12.6f %7.1f%%\n", site.c_str(),
                  static_cast<double>(ops) / interval_s, p99 * 1e3,
                  queue == window.gauges.end() ? 0.0 : queue->second.value,
                  hit_pct);
    }
    std::printf("\n");
  });
  return 0;
}

int cmd_metrics(testbed::Testbed& tb, bool json, bool prom) {
  std::string subject;
  if (const int rc = run_instrumented_demo(tb, &subject); rc != 0) return rc;

  if (json) {
    std::printf("%s\n", obs::MetricsRegistry::global().dump_json().c_str());
    return 0;
  }
  if (prom) {
    std::printf("%s",
                obs::prometheus_text(obs::MetricsRegistry::global()).c_str());
    std::printf("# EOF\n");
    return 0;
  }

  std::printf("%s", obs::MetricsRegistry::global().dump_table().c_str());
  std::vector<obs::SpanRecord> lifecycle;
  for (obs::SpanRecord& span : obs::TraceRecorder::global().spans()) {
    if (span.subject == subject) lifecycle.push_back(std::move(span));
  }
  // The ring holds spans in close order; a lifecycle reads in start order.
  std::stable_sort(lifecycle.begin(), lifecycle.end(),
                   [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
                     return a.wall_start < b.wall_start;
                   });
  std::printf("\nproxy lifecycle (%s):\n", subject.c_str());
  for (const obs::SpanRecord& span : lifecycle) {
    std::printf("  %-20s site=%-12s vtime=%10.6f s  dur=%10.6f s\n",
                span.name.c_str(), span.site.c_str(), span.vtime_start,
                span.vtime_end - span.vtime_start);
  }
  std::printf("\nrun `psctl metrics --json` for machine-readable output\n");
  return 0;
}

// `psctl slo [--json]`: the default SLO set evaluated against the
// instrumented demo workload. The same engine the load harness and the
// BENCH_*.json artifacts use — this command is the quick interactive probe.
int cmd_slo(testbed::Testbed& tb, bool json, bool prom) {
  obs::SloRegistry& slos = obs::SloRegistry::global();
  slos.clear();
  // Generous bounds for the in-process demo: the point here is wiring, not
  // tuning. Scenario-scale objectives live in bench/load_mixed.cpp.
  slos.declare({.name = "demo.local.get.p99",
                .metric = "connector.local.get.vtime",
                .percentile = "p99",
                .threshold_s = 0.010,
                .min_samples = 8});
  slos.declare({.name = "demo.local.put.p999",
                .metric = "connector.local.put.vtime",
                .percentile = "p999",
                .threshold_s = 0.010,
                .min_samples = 8});
  slos.declare({.name = "demo.file.put.p99",
                .metric = "connector.file.put.vtime",
                .percentile = "p99",
                .threshold_s = 0.100,
                .min_samples = 8});
  slos.declare({.name = "demo.async.service.p99",
                .metric = "async.executor.service.vtime",
                .percentile = "p99",
                .threshold_s = 0.250,
                .min_samples = 4});

  if (const int rc = run_instrumented_demo(tb, nullptr); rc != 0) return rc;

  const obs::SloReport report = slos.evaluate();
  if (prom) {
    std::printf("%s", obs::slo_prometheus_text(report).c_str());
    std::printf("# EOF\n");
  } else if (json) {
    std::printf("%s", obs::slo_report_json(report).c_str());
  } else {
    std::printf("%s", report.table().c_str());
    std::printf("\n%zu objectives: %zu breached, %zu with insufficient "
                "data\n",
                report.verdicts.size(), report.breaches(),
                report.insufficient());
  }
  return report.passed() ? 0 : 1;
}

int cmd_stream_stats(testbed::Testbed& tb, bool json) {
  obs::set_enabled(true);

  proc::Process& producer = tb.world->spawn("psctl-prod", tb.theta_compute0);
  proc::Process& consumer = tb.world->spawn("psctl-cons", tb.midway_login);
  kv::KvServer::start(*tb.world, tb.cloud, "psctl-broker");

  // Topic "updates": in-process queue broker, two subscribers, fully
  // drained — lag ends at zero and delivered = 2x published.
  {
    auto broker = std::make_shared<stream::QueueBroker>();
    stream::StreamConsumer<int> sink_a(broker, "updates");
    stream::StreamConsumer<int> sink_b(broker, "updates");
    {
      proc::ProcessScope scope(producer);
      auto store = std::make_shared<core::Store>(
          "psctl-updates", std::make_shared<connectors::LocalConnector>());
      core::register_store(store);
      stream::StreamProducer<int> source(
          store, broker, "updates",
          stream::StreamProducerOptions{.max_batch_items = 4});
      for (int i = 0; i < 12; ++i) source.send(i);
      source.close();
    }
    proc::ProcessScope scope(consumer);
    while (auto item = sink_a.next_item()) item->proxy.resolve();
    while (auto item = sink_b.next_item()) item->proxy.resolve();
  }

  // Topic "gradients": cloud-hosted kv broker crossing site boundaries;
  // the consumer stops three events short, leaving visible lag.
  {
    std::shared_ptr<stream::KvBroker> broker;
    std::unique_ptr<stream::StreamConsumer<Bytes>> sink;
    {
      proc::ProcessScope scope(consumer);
      broker = std::make_shared<stream::KvBroker>(
          kv::kv_address(tb.cloud, "psctl-broker"));
      sink = std::make_unique<stream::StreamConsumer<Bytes>>(broker,
                                                             "gradients");
    }
    {
      proc::ProcessScope scope(producer);
      auto store = std::make_shared<core::Store>(
          "psctl-gradients", std::make_shared<connectors::LocalConnector>());
      core::register_store(store);
      stream::StreamProducer<Bytes> source(store, broker, "gradients");
      for (int i = 0; i < 8; ++i) source.send(pattern_bytes(1000, 7 + i));
      source.close();
    }
    proc::ProcessScope scope(consumer);
    for (int i = 0; i < 5; ++i) {
      if (auto item = sink->next_item()) item->proxy.resolve();
    }
  }

  // Per-topic rows assembled from the registry counters the stream layer
  // maintains (the same ones Prometheus/JSON exports see).
  struct TopicStats {
    std::uint64_t published = 0;
    std::uint64_t delivered = 0;
    std::uint64_t consumed = 0;
    std::uint64_t dispatched = 0;
  };
  std::map<std::string, TopicStats> topics;
  for (const auto& [name, value] :
       obs::MetricsRegistry::global().counters()) {
    const auto with_prefix = [&](const std::string& prefix) {
      return name.rfind(prefix, 0) == 0
                 ? std::optional<std::string>(name.substr(prefix.size()))
                 : std::nullopt;
    };
    if (auto topic = with_prefix("stream.publish.")) {
      topics[*topic].published = value;
    } else if (auto topic = with_prefix("stream.delivered.")) {
      topics[*topic].delivered = value;
    } else if (auto topic = with_prefix("stream.consume.")) {
      topics[*topic].consumed = value;
    } else if (auto topic = with_prefix("stream.dispatch.")) {
      topics[*topic].dispatched = value;
    }
  }

  if (json) {
    // Machine-readable form so the load harness and CI can assert on
    // per-topic lag without scraping the table.
    std::string out = "{\"schema_version\":1,\"topics\":{";
    bool first = true;
    for (const auto& [topic, stats] : topics) {
      const std::uint64_t lag =
          stats.delivered > stats.consumed ? stats.delivered - stats.consumed
                                           : 0;
      obs::json_comma(out, first);
      out += "\n \"";
      obs::json_escape_into(out, topic);
      out += "\":{\"published\":" + std::to_string(stats.published) +
             ",\"delivered\":" + std::to_string(stats.delivered) +
             ",\"consumed\":" + std::to_string(stats.consumed) +
             ",\"dispatched\":" + std::to_string(stats.dispatched) +
             ",\"lag\":" + std::to_string(lag) + "}";
    }
    out += "\n}}\n";
    std::printf("%s", out.c_str());
    return 0;
  }

  std::printf("%-14s %10s %10s %10s %11s %6s\n", "topic", "published",
              "delivered", "consumed", "dispatched", "lag");
  for (const auto& [topic, stats] : topics) {
    const std::uint64_t lag =
        stats.delivered > stats.consumed ? stats.delivered - stats.consumed
                                         : 0;
    std::printf("%-14s %10llu %10llu %10llu %11llu %6llu\n", topic.c_str(),
                static_cast<unsigned long long>(stats.published),
                static_cast<unsigned long long>(stats.delivered),
                static_cast<unsigned long long>(stats.consumed),
                static_cast<unsigned long long>(stats.dispatched),
                static_cast<unsigned long long>(lag));
  }
  return 0;
}

int cmd_swarm_stats(testbed::Testbed& tb, bool json) {
  obs::set_enabled(true);

  proc::Process& client = tb.world->spawn("psctl-swarm", tb.cloud);
  proc::ProcessScope scope(client);

  // Four local replicas behind fault injectors: one serves a corrupted
  // first chunk (guaranteed re-request — chunk 0 is the first assigned, so
  // with all pipeline frontiers equal it lands on its lowest-index holder)
  // and one answers every read late enough to be timed out and routed
  // around. The resolve therefore exercises fetch, verify, repair and
  // slow-source reroute in one pass, and the counters below show all of it.
  std::vector<std::shared_ptr<swarm::FaultInjectedConnector>> faults;
  std::vector<swarm::Backend> backends;
  for (int b = 0; b < 4; ++b) {
    faults.push_back(std::make_shared<swarm::FaultInjectedConnector>(
        std::make_shared<connectors::LocalConnector>()));
    backends.push_back(
        swarm::Backend{"replica-" + std::to_string(b), faults.back()});
  }
  swarm::SwarmOptions options;
  options.chunk_size = 256 * 1024;
  options.chunk_threshold = 512 * 1024;
  options.replication = 2;
  swarm::SwarmConnector connector(backends, options);

  const Bytes payload = pattern_bytes(4'000'000, 23);
  const core::Key key = connector.put(payload);
  const auto manifest = connector.manifest(key);
  if (!manifest || manifest->chunks.empty()) {
    std::fprintf(stderr, "psctl: swarm demo produced no manifest\n");
    return 1;
  }
  const swarm::ChunkRef& first = manifest->chunks.front();
  const std::uint32_t pick =
      *std::min_element(first.holders.begin(), first.holders.end());
  faults[pick]->corrupt(swarm::chunk_key(first.hash).object_id);
  faults[(pick + 1) % faults.size()]->set_get_delay(0.05);

  const auto value = connector.get(key);
  if (!value || *value != payload) {
    std::fprintf(stderr, "psctl: swarm demo resolve failed\n");
    return 1;
  }

  // Per-source rows plus the repair/verification summary, assembled from
  // the same registry counters the Prometheus/JSON exports see.
  struct SourceStats {
    std::uint64_t chunks = 0;
    std::uint64_t bytes = 0;
    std::uint64_t timeouts = 0;
  };
  std::map<std::string, SourceStats> per_source;
  std::map<std::string, std::uint64_t> summary;
  for (const auto& [name, value_] :
       obs::MetricsRegistry::ambient().counters()) {
    const std::string prefix = "swarm.source.";
    if (name.rfind(prefix, 0) == 0) {
      const std::string rest = name.substr(prefix.size());
      const std::size_t dot = rest.rfind('.');
      if (dot != std::string::npos) {
        const std::string source = rest.substr(0, dot);
        const std::string field = rest.substr(dot + 1);
        if (field == "chunks") per_source[source].chunks = value_;
        if (field == "bytes") per_source[source].bytes = value_;
        if (field == "timeouts") per_source[source].timeouts = value_;
        continue;
      }
    }
    if (name.rfind("swarm.", 0) == 0) summary[name] = value_;
  }

  if (json) {
    std::string out = "{\"schema_version\":1,\"sources\":{";
    bool sfirst = true;
    for (const auto& [source, stats] : per_source) {
      obs::json_comma(out, sfirst);
      out += "\n \"";
      obs::json_escape_into(out, source);
      out += "\":{\"chunks\":" + std::to_string(stats.chunks) +
             ",\"bytes\":" + std::to_string(stats.bytes) +
             ",\"timeouts\":" + std::to_string(stats.timeouts) + "}";
    }
    out += "\n},\"summary\":{";
    bool cfirst = true;
    for (const auto& [name, value_] : summary) {
      obs::json_comma(out, cfirst);
      out += "\n \"";
      obs::json_escape_into(out, name);
      out += "\":" + std::to_string(value_);
    }
    out += "\n}}\n";
    std::printf("%s", out.c_str());
    return 0;
  }

  std::printf("%-12s %8s %12s %9s\n", "source", "chunks", "bytes",
              "timeouts");
  for (const auto& [source, stats] : per_source) {
    std::printf("%-12s %8llu %12llu %9llu\n", source.c_str(),
                static_cast<unsigned long long>(stats.chunks),
                static_cast<unsigned long long>(stats.bytes),
                static_cast<unsigned long long>(stats.timeouts));
  }
  std::printf("\n");
  for (const auto& [name, value_] : summary) {
    std::printf("%-28s %12llu\n", name.c_str(),
                static_cast<unsigned long long>(value_));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "connectors") return cmd_connectors();

  // Artifact commands work on files alone — no testbed needed.
  if (command == "bench") {
    const std::string sub = argc >= 3 ? argv[2] : "";
    if (sub == "check" && argc >= 4) {
      return cmd_bench_check({argv + 3, argv + argc});
    }
    if (sub == "diff" && (argc == 5 || argc == 7)) {
      double wall_tol = -1.0;
      if (argc == 7) {
        if (std::string(argv[5]) != "--wall-tol") return usage();
        wall_tol = std::atof(argv[6]);
      }
      return cmd_bench_diff(argv[3], argv[4], wall_tol);
    }
    return usage();
  }

  testbed::Testbed tb = testbed::build();
  try {
    if (command == "hosts") return cmd_hosts(tb);
    if (command == "route" && argc == 4) return cmd_route(tb, argv[2], argv[3]);
    if (command == "transfer" && argc == 5) {
      return cmd_transfer(tb, argv[2], argv[3], argv[4]);
    }
    if (command == "handshake" && argc == 4) {
      return cmd_handshake(tb, argv[2], argv[3]);
    }
    if (command == "metrics") {
      bool sites = false;
      bool json = false;
      bool prom = false;
      for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--sites") {
          sites = true;
        } else if (flag == "--json") {
          json = true;
        } else if (flag == "--prom") {
          prom = true;
        } else {
          return usage();
        }
      }
      if (json && prom) return usage();
      return sites ? cmd_metrics_sites(tb, json, prom)
                   : cmd_metrics(tb, json, prom);
    }
    if (command == "top") {
      double interval_s = 0.5;
      bool once = false;
      for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--interval" && i + 1 < argc) {
          interval_s = std::atof(argv[++i]);
          if (!(interval_s > 0.0)) return usage();
        } else if (flag == "--once") {
          once = true;
        } else {
          return usage();
        }
      }
      return cmd_top(tb, interval_s, once);
    }
    if (command == "trace" && argc == 4 &&
        std::string(argv[2]) == "export") {
      return cmd_trace_export(tb, argv[3]);
    }
    if (command == "trace" && argc >= 3 &&
        std::string(argv[2]) == "critical") {
      std::size_t top_n = 5;
      bool json = false;
      for (int i = 3; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--top" && i + 1 < argc) {
          top_n = static_cast<std::size_t>(std::atoi(argv[++i]));
          if (top_n == 0) return usage();
        } else if (flag == "--json") {
          json = true;
        } else {
          return usage();
        }
      }
      return cmd_trace_critical(tb, top_n, json);
    }
    if (command == "flight" && argc == 4 &&
        std::string(argv[2]) == "dump") {
      return cmd_flight_dump(tb, argv[3]);
    }
    if (command == "stream" && (argc == 3 || argc == 4) &&
        std::string(argv[2]) == "stats") {
      const std::string flag = argc == 4 ? argv[3] : "";
      if (argc == 4 && flag != "--json") return usage();
      return cmd_stream_stats(tb, flag == "--json");
    }
    if (command == "swarm" && (argc == 3 || argc == 4) &&
        std::string(argv[2]) == "stats") {
      const std::string flag = argc == 4 ? argv[3] : "";
      if (argc == 4 && flag != "--json") return usage();
      return cmd_swarm_stats(tb, flag == "--json");
    }
    if (command == "slo") {
      const std::string flag = argc >= 3 ? argv[2] : "";
      if (argc > 3 || (argc == 3 && flag != "--json" && flag != "--prom")) {
        return usage();
      }
      return cmd_slo(tb, flag == "--json", flag == "--prom");
    }
    if (command == "profile") {
      std::string folded_path;
      bool wall = false;
      for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--folded" && i + 1 < argc) {
          folded_path = argv[++i];
        } else if (flag == "--wall") {
          wall = true;
        } else {
          return usage();
        }
      }
      return cmd_profile(tb, folded_path, wall);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psctl: %s\n", e.what());
    return 1;
  }
  return usage();
}
