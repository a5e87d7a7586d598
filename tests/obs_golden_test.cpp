// Byte-identity golden for every src/obs emitter.
//
// One fixed input — a registry holding only explicitly observed values,
// snapshots of it, hand-built spans with set wall and virtual times, fixed
// trace ids, and names carrying a quote, a backslash, a newline, a tab and
// a 0x01 byte — is rendered through every exporter and compared with the
// exact bytes the exporters produced when this test was written. Any change
// to an encoder (escaping, number format, field order, separators) shows up
// here as a diff against a known-good string.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/context.hpp"
#include "obs/critical.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/vtime.hpp"

namespace ps::obs {
namespace {

const std::string kHostile = "tab\there\nnl \"q\" back\\slash \x01";

void fill_registry(MetricsRegistry& registry, double vtime_s) {
  registry.counter("golden.ops").inc(42);
  registry.counter(kHostile).inc(7);
  registry.gauge("golden.depth", GaugeAgg::kMax).set(2.5);
  registry.gauge(kHostile, GaugeAgg::kSum).set(1.25);
  {
    // Observed under a fixed trace context so the buckets carry exemplars.
    sim::vset(vtime_s);
    const ContextScope ctx(
        TraceContext{0x0123456789abcdefULL, 0xfedcba9876543210ULL, 77, 0});
    Histogram& lat = registry.histogram("golden.lat");
    for (const double s : {1e-3, 2e-3, 3e-3, 2.5e-2}) lat.observe(s);
    sim::vset(0.0);
  }
  Histogram& hostile = registry.histogram(kHostile);
  for (const double s : {4e-6, 7.5e-4, 0.3, 1.75}) hostile.observe(s);
  // Past the reservoir: percentiles come from bucket interpolation.
  Histogram& big = registry.histogram("golden.big");
  for (int i = 0; i < 1500; ++i) big.observe(1e-5 * static_cast<double>(i));
}

SpanRecord span(std::uint64_t hi, std::uint64_t lo, std::uint64_t id,
                std::uint64_t parent, std::string name, std::string kind,
                std::string site, double wall_start, double wall_end,
                double vtime_start, double vtime_end) {
  SpanRecord s;
  s.ctx = TraceContext{hi, lo, id, parent};
  s.name = std::move(name);
  s.kind = std::move(kind);
  s.process = "proc-" + site;
  s.host = "host-" + site;
  s.site = std::move(site);
  s.wall_start = wall_start;
  s.wall_end = wall_end;
  s.vtime_start = vtime_start;
  s.vtime_end = vtime_end;
  return s;
}

std::vector<SpanRecord> golden_spans() {
  std::vector<SpanRecord> spans;
  spans.push_back(span(1, 2, 10, 0, "golden.root", "client", "site-a", 0.001,
                       0.009, 1.0, 2.0));
  spans.push_back(span(1, 2, 11, 10, "connector.get", "", "site-a", 0.002,
                       0.004, 1.1, 1.4));
  spans.back().subject = kHostile;
  spans.push_back(span(1, 2, 12, 10, kHostile, kHostile, kHostile, 0.005,
                       0.008, 1.5, 1.9));
  spans.back().process = kHostile;
  spans.push_back(span(3, 4, 20, 0, "golden.other", "", "site-b", 0.010,
                       0.0125, 0.5, 0.75));
  return spans;
}

SloReport golden_slo_report() {
  SloReport report;
  const auto verdict = [&](std::string name, std::string metric,
                           std::string percentile, double threshold_s,
                           SloStatus status, double observed_s,
                           std::uint64_t samples) {
    SloVerdict v;
    v.objective.name = std::move(name);
    v.objective.metric = std::move(metric);
    v.objective.percentile = std::move(percentile);
    v.objective.threshold_s = threshold_s;
    v.objective.min_samples = 4;
    v.status = status;
    v.observed_s = observed_s;
    v.samples = samples;
    report.verdicts.push_back(std::move(v));
  };
  verdict("golden.lat.p99", "golden.lat", "p99", 5e-2, SloStatus::kPass,
          2.4e-2, 4);
  verdict(kHostile, kHostile, "p999", 0.5, SloStatus::kBreach, 1.7, 4);
  verdict("golden.absent.p50", "golden.absent", "p50", 1e-3,
          SloStatus::kInsufficientData, 0.0, 0);
  return report;
}

BenchArtifact golden_artifact() {
  BenchArtifact artifact;
  artifact.bench = kHostile;
  artifact.seed = 1234;
  artifact.git_rev = "0123456789abcdef0123456789abcdef01234567";
  SeriesStats vt;
  vt.count = 4;
  vt.mean_s = 7.75e-3;
  vt.p50_s = 2.5e-3;
  vt.p99_s = 2.4e-2;
  vt.p999_s = 2.49e-2;
  vt.min_s = 1e-3;
  vt.max_s = 2.5e-2;
  vt.sum_s = 3.1e-2;
  SeriesAttribution attribution;
  attribution.trace_id = "0123456789abcdeffedcba9876543210";
  attribution.span_id = 77;
  attribution.sample_s = 2.5e-2;
  attribution.attributed_s = 2.5e-2;
  attribution.segments = {{"wire-transfer", 2e-2, 3}, {kHostile, 5e-3, 1}};
  vt.attribution = attribution;
  artifact.series.emplace("golden.lat", vt);
  SeriesStats wall = vt;
  wall.attribution.reset();
  wall.kind = "wall";
  wall.units = "ratio";
  artifact.series.emplace(kHostile, wall);
  for (const SloVerdict& v : golden_slo_report().verdicts) {
    SloResult r;
    r.name = v.objective.name;
    r.metric = v.objective.metric;
    r.percentile = v.objective.percentile;
    r.threshold_s = v.objective.threshold_s;
    r.min_samples = v.objective.min_samples;
    r.status = to_string(v.status);
    r.observed_s = v.observed_s;
    r.samples = v.samples;
    artifact.slos.push_back(std::move(r));
  }
  artifact.profile_top = Profile::from_spans(golden_spans()).top_nodes(3);
  return artifact;
}

/// (emitter, rendered bytes) for every exporter over the fixed input.
std::vector<std::pair<std::string, std::string>> render_every_emitter() {
  MetricsRegistry registry;
  fill_registry(registry, 5.0);
  MetricsRegistry other;
  other.counter("golden.ops").inc(8);
  other.gauge("golden.depth", GaugeAgg::kMax).set(4.0);
  other.histogram("golden.lat").observe(4e-3);
  const std::map<std::string, RegistrySnapshot> by_site = {
      {"site-a", registry.take_snapshot(10.0)},
      {kHostile, other.take_snapshot(12.5)}};

  const std::vector<SpanRecord> spans = golden_spans();
  const SloReport report = golden_slo_report();
  FlightRecorder::Snapshot flight;
  flight.reason = "slo-breach: " + kHostile;
  flight.wall_s = 0.015;
  flight.vtime_s = 2.25;
  flight.spans = {spans[0], spans[2]};

  return {
      {"dump_json", registry.dump_json()},
      {"dump_table", registry.dump_table()},
      {"prometheus_text", prometheus_text(registry)},
      {"federated_metrics_json", federated_metrics_json(by_site)},
      {"federated_prometheus_text", federated_prometheus_text(by_site)},
      {"slo_report_json", slo_report_json(report)},
      {"slo_prometheus_text", slo_prometheus_text(report)},
      {"SloReport::table", report.table()},
      {"CriticalPath::json",
       CriticalPath::json(CriticalPath::from_spans(spans).reports())},
      {"Profile::table", Profile::from_spans(spans).table()},
      {"bench_artifact_json", bench_artifact_json(golden_artifact())},
      {"perfetto_trace_json", perfetto_trace_json(spans)},
      {"FlightRecorder::dump_json", FlightRecorder::dump_json(flight)},
  };
}

// clang-format off
const std::map<std::string, std::string>& expected() {
  static const std::map<std::string, std::string> kExpected = {
    {"dump_json",
     "{\"schema_version\":3,\"bucket_bounds_s\":[1.77827941e-07,3.16227766"
     "e-07,5.62341325e-07,1e-06,1.77827941e-06,3.16227766e-06,5.623413"
     "25e-06,1e-05,1.77827941e-05,3.16227766e-05,5.62341325e-05,0.0001"
     ",0.000177827941,0.000316227766,0.000562341325,0.001,0.0017782794"
     "1,0.00316227766,0.00562341325,0.01,0.0177827941,0.0316227766,0.0"
     "562341325,0.1,0.177827941,0.316227766,0.562341325,1,1.77827941,3"
     ".16227766,5.62341325,10,17.7827941,31.6227766,56.2341325,100,177"
     ".827941,316.227766,562.341325,1000],\"counters\":{\"golden.ops\":42,"
     "\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\":7},\"gauges\":{\"golden.de"
     "pth\":2.5,\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\":1.25},\"histogr"
     "ams\":{\"golden.big\":{\"count\":1500,\"sum_s\":11.2425,\"mean_s\":0.0074"
     "95,\"min_s\":0,\"max_s\":0.01499,\"p50_s\":0.00748695989,\"p95_s\":0.016"
     "5982185,\"p99_s\":0.0175334016,\"p999_s\":0.0177438177,\"buckets\":[[1"
     ".77827941e-07,1],[1.77827941e-05,1],[3.16227766e-05,2],[5.623413"
     "25e-05,2],[0.0001,4],[0.000177827941,8],[0.000316227766,14],[0.0"
     "00562341325,25],[0.001,44],[0.00177827941,77],[0.00316227766,139"
     "],[0.00562341325,246],[0.01,438],[0.0177827941,499]],\"exemplars\""
     ":[]},\"golden.lat\":{\"count\":4,\"sum_s\":0.031,\"mean_s\":0.00775,\"min"
     "_s\":0.001,\"max_s\":0.025,\"p50_s\":0.0025,\"p95_s\":0.0217,\"p99_s\":0."
     "02434,\"p999_s\":0.024934,\"buckets\":[[0.001,1],[0.00316227766,2],["
     "0.0316227766,1]],\"exemplars\":[{\"le\":0.001,\"value_s\":0.001,\"trace"
     "_id\":\"0123456789abcdeffedcba9876543210\",\"span_id\":77,\"vtime_s\":5"
     "},{\"le\":0.00316227766,\"value_s\":0.003,\"trace_id\":\"0123456789abcd"
     "effedcba9876543210\",\"span_id\":77,\"vtime_s\":5},{\"le\":0.0316227766"
     ",\"value_s\":0.025,\"trace_id\":\"0123456789abcdeffedcba9876543210\",\""
     "span_id\":77,\"vtime_s\":5}]},\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u00"
     "01\":{\"count\":4,\"sum_s\":2.050754,\"mean_s\":0.5126885,\"min_s\":4e-06"
     ",\"max_s\":1.75,\"p50_s\":0.150375,\"p95_s\":1.5325,\"p99_s\":1.7065,\"p9"
     "99_s\":1.74565,\"buckets\":[[5.62341325e-06,1],[0.001,1],[0.3162277"
     "66,1],[1.77827941,1]],\"exemplars\":[]}}}"},
    {"dump_table",
     "-- counters ------------------------------------------------\n"
     "golden.ops                                             42\n"
     "tab\there\n"
     "nl \"q\" back\\slash \001                            7\n"
     "-- gauges --------------------------------------------------\n"
     "golden.depth                                        2.500\n"
     "tab\there\n"
     "nl \"q\" back\\slash \001                        1.250\n"
     "-- histograms ----------------------------------------------\n"
     "name                                            count       mean"
     "        p50        p95        p99        max\n"
     "golden.big                                       1500    7.50 ms"
     "    7.49 ms   16.60 ms   17.53 ms   14.99 ms\n"
     "golden.lat                                          4    7.75 ms"
     "    2.50 ms   21.70 ms   24.34 ms   25.00 ms\n"
     "tab\there\n"
     "nl \"q\" back\\slash \001                        4  512.69 ms  150.37 "
     "ms    1.532 s    1.706 s    1.750 s\n"},
    {"prometheus_text",
     "# HELP ps_golden_ops_total Monotonic count of golden.ops events."
     "\n"
     "# TYPE ps_golden_ops_total counter\n"
     "ps_golden_ops_total 42\n"
     "# HELP ps_tab_here_nl__q__back_slash___total Monotonic count of "
     "tab\there\n"
     "nl \"q\" back\\slash \001 events.\n"
     "# TYPE ps_tab_here_nl__q__back_slash___total counter\n"
     "ps_tab_here_nl__q__back_slash___total 7\n"
     "# HELP ps_golden_depth Instantaneous value of golden.depth.\n"
     "# TYPE ps_golden_depth gauge\n"
     "ps_golden_depth 2.5\n"
     "# HELP ps_tab_here_nl__q__back_slash__ Instantaneous value of ta"
     "b\there\n"
     "nl \"q\" back\\slash \001.\n"
     "# TYPE ps_tab_here_nl__q__back_slash__ gauge\n"
     "ps_tab_here_nl__q__back_slash__ 1.25\n"
     "# HELP ps_golden_big_seconds Latency distribution of golden.big "
     "in seconds.\n"
     "# TYPE ps_golden_big_seconds histogram\n"
     "ps_golden_big_seconds_bucket{le=\"1.77827941e-07\"} 1\n"
     "ps_golden_big_seconds_bucket{le=\"1.77827941e-05\"} 2\n"
     "ps_golden_big_seconds_bucket{le=\"3.16227766e-05\"} 4\n"
     "ps_golden_big_seconds_bucket{le=\"5.62341325e-05\"} 6\n"
     "ps_golden_big_seconds_bucket{le=\"0.0001\"} 10\n"
     "ps_golden_big_seconds_bucket{le=\"0.000177827941\"} 18\n"
     "ps_golden_big_seconds_bucket{le=\"0.000316227766\"} 32\n"
     "ps_golden_big_seconds_bucket{le=\"0.000562341325\"} 57\n"
     "ps_golden_big_seconds_bucket{le=\"0.001\"} 101\n"
     "ps_golden_big_seconds_bucket{le=\"0.00177827941\"} 178\n"
     "ps_golden_big_seconds_bucket{le=\"0.00316227766\"} 317\n"
     "ps_golden_big_seconds_bucket{le=\"0.00562341325\"} 563\n"
     "ps_golden_big_seconds_bucket{le=\"0.01\"} 1001\n"
     "ps_golden_big_seconds_bucket{le=\"0.0177827941\"} 1500\n"
     "ps_golden_big_seconds_bucket{le=\"+Inf\"} 1500\n"
     "ps_golden_big_seconds_sum 11.2425\n"
     "ps_golden_big_seconds_count 1500\n"
     "# HELP ps_golden_big_quantiles_seconds Latency quantiles of gold"
     "en.big in seconds.\n"
     "# TYPE ps_golden_big_quantiles_seconds summary\n"
     "ps_golden_big_quantiles_seconds{quantile=\"0.5\"} 0.00748695989\n"
     "ps_golden_big_quantiles_seconds{quantile=\"0.99\"} 0.0175334016\n"
     "ps_golden_big_quantiles_seconds{quantile=\"0.999\"} 0.0177438177\n"
     "ps_golden_big_quantiles_seconds_sum 11.2425\n"
     "ps_golden_big_quantiles_seconds_count 1500\n"
     "# HELP ps_golden_lat_seconds Latency distribution of golden.lat "
     "in seconds.\n"
     "# TYPE ps_golden_lat_seconds histogram\n"
     "ps_golden_lat_seconds_bucket{le=\"0.001\"} 1 # {trace_id=\"01234567"
     "89abcdeffedcba9876543210\",span_id=\"77\"} 0.001 5\n"
     "ps_golden_lat_seconds_bucket{le=\"0.00316227766\"} 3 # {trace_id=\""
     "0123456789abcdeffedcba9876543210\",span_id=\"77\"} 0.003 5\n"
     "ps_golden_lat_seconds_bucket{le=\"0.0316227766\"} 4 # {trace_id=\"0"
     "123456789abcdeffedcba9876543210\",span_id=\"77\"} 0.025 5\n"
     "ps_golden_lat_seconds_bucket{le=\"+Inf\"} 4\n"
     "ps_golden_lat_seconds_sum 0.031\n"
     "ps_golden_lat_seconds_count 4\n"
     "# HELP ps_golden_lat_quantiles_seconds Latency quantiles of gold"
     "en.lat in seconds.\n"
     "# TYPE ps_golden_lat_quantiles_seconds summary\n"
     "ps_golden_lat_quantiles_seconds{quantile=\"0.5\"} 0.0025\n"
     "ps_golden_lat_quantiles_seconds{quantile=\"0.99\"} 0.02434\n"
     "ps_golden_lat_quantiles_seconds{quantile=\"0.999\"} 0.024934\n"
     "ps_golden_lat_quantiles_seconds_sum 0.031\n"
     "ps_golden_lat_quantiles_seconds_count 4\n"
     "# HELP ps_tab_here_nl__q__back_slash___seconds Latency distribut"
     "ion of tab\there\n"
     "nl \"q\" back\\slash \001 in seconds.\n"
     "# TYPE ps_tab_here_nl__q__back_slash___seconds histogram\n"
     "ps_tab_here_nl__q__back_slash___seconds_bucket{le=\"5.62341325e-0"
     "6\"} 1\n"
     "ps_tab_here_nl__q__back_slash___seconds_bucket{le=\"0.001\"} 2\n"
     "ps_tab_here_nl__q__back_slash___seconds_bucket{le=\"0.316227766\"}"
     " 3\n"
     "ps_tab_here_nl__q__back_slash___seconds_bucket{le=\"1.77827941\"} "
     "4\n"
     "ps_tab_here_nl__q__back_slash___seconds_bucket{le=\"+Inf\"} 4\n"
     "ps_tab_here_nl__q__back_slash___seconds_sum 2.050754\n"
     "ps_tab_here_nl__q__back_slash___seconds_count 4\n"
     "# HELP ps_tab_here_nl__q__back_slash___quantiles_seconds Latency"
     " quantiles of tab\there\n"
     "nl \"q\" back\\slash \001 in seconds.\n"
     "# TYPE ps_tab_here_nl__q__back_slash___quantiles_seconds summary"
     "\n"
     "ps_tab_here_nl__q__back_slash___quantiles_seconds{quantile=\"0.5\""
     "} 0.150375\n"
     "ps_tab_here_nl__q__back_slash___quantiles_seconds{quantile=\"0.99"
     "\"} 1.7065\n"
     "ps_tab_here_nl__q__back_slash___quantiles_seconds{quantile=\"0.99"
     "9\"} 1.74565\n"
     "ps_tab_here_nl__q__back_slash___quantiles_seconds_sum 2.050754\n"
     "ps_tab_here_nl__q__back_slash___quantiles_seconds_count 4\n"},
    {"federated_metrics_json",
     "{\"schema_version\":1,\"sites\":{\n"
     " \"site-a\":{\"vtime_s\":10,\"counters\":{\"golden.ops\":42,\"tab\\there\\n"
     "nl \\\"q\\\" back\\\\slash \\u0001\":7},\"gauges\":{\"golden.depth\":{\"value"
     "\":2.5,\"agg\":\"max\"},\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\":{\"va"
     "lue\":1.25,\"agg\":\"sum\"}},\"histograms\":{\"golden.big\":{\"count\":1500"
     ",\"sum_s\":11.2425,\"mean_s\":0.007495,\"min_s\":0,\"max_s\":0.01499,\"p5"
     "0_s\":0.00748695989,\"p99_s\":0.0175334016,\"p999_s\":0.0177438177},\""
     "golden.lat\":{\"count\":4,\"sum_s\":0.031,\"mean_s\":0.00775,\"min_s\":0."
     "001,\"max_s\":0.025,\"p50_s\":0.0025,\"p99_s\":0.02434,\"p999_s\":0.0249"
     "34},\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\":{\"count\":4,\"sum_s\":"
     "2.050754,\"mean_s\":0.5126885,\"min_s\":4e-06,\"max_s\":1.75,\"p50_s\":0"
     ".150375,\"p99_s\":1.7065,\"p999_s\":1.74565}}},\n"
     " \"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\":{\"vtime_s\":12.5,\"count"
     "ers\":{\"golden.ops\":8},\"gauges\":{\"golden.depth\":{\"value\":4,\"agg\":"
     "\"max\"}},\"histograms\":{\"golden.lat\":{\"count\":1,\"sum_s\":0.004,\"mea"
     "n_s\":0.004,\"min_s\":0.004,\"max_s\":0.004,\"p50_s\":0.004,\"p99_s\":0.0"
     "04,\"p999_s\":0.004}}}\n"
     "},\"aggregate\":{\"vtime_s\":12.5,\"counters\":{\"golden.ops\":50,\"tab\\t"
     "here\\nnl \\\"q\\\" back\\\\slash \\u0001\":7},\"gauges\":{\"golden.depth\":{"
     "\"value\":4,\"agg\":\"max\"},\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\":"
     "{\"value\":1.25,\"agg\":\"sum\"}},\"histograms\":{\"golden.big\":{\"count\":"
     "1500,\"sum_s\":11.2425,\"mean_s\":0.007495,\"min_s\":0,\"max_s\":0.01499"
     ",\"p50_s\":0.00748695989,\"p99_s\":0.0175334016,\"p999_s\":0.017743817"
     "7},\"golden.lat\":{\"count\":5,\"sum_s\":0.035,\"mean_s\":0.007,\"min_s\":"
     "0.001,\"max_s\":0.025,\"p50_s\":0.003,\"p99_s\":0.02416,\"p999_s\":0.024"
     "916},\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\":{\"count\":4,\"sum_s\""
     ":2.050754,\"mean_s\":0.5126885,\"min_s\":4e-06,\"max_s\":1.75,\"p50_s\":"
     "0.150375,\"p99_s\":1.7065,\"p999_s\":1.74565}}}}\n"},
    {"federated_prometheus_text",
     "# HELP ps_golden_ops_total Monotonic count of golden.ops events "
     "per site.\n"
     "# TYPE ps_golden_ops_total counter\n"
     "ps_golden_ops_total{site=\"site-a\"} 42\n"
     "ps_golden_ops_total{site=\"tab\there\\nnl \\\"q\\\" back\\\\slash \001\"} 8\n"
     "# HELP ps_tab_here_nl__q__back_slash___total Monotonic count of "
     "tab\there\n"
     "nl \"q\" back\\slash \001 events per site.\n"
     "# TYPE ps_tab_here_nl__q__back_slash___total counter\n"
     "ps_tab_here_nl__q__back_slash___total{site=\"site-a\"} 7\n"
     "# HELP ps_golden_depth Instantaneous value of golden.depth per s"
     "ite (agg=max).\n"
     "# TYPE ps_golden_depth gauge\n"
     "ps_golden_depth{site=\"site-a\"} 2.5\n"
     "ps_golden_depth{site=\"tab\there\\nnl \\\"q\\\" back\\\\slash \001\"} 4\n"
     "ps_golden_depth{site=\"aggregate\"} 4\n"
     "# HELP ps_tab_here_nl__q__back_slash__ Instantaneous value of ta"
     "b\there\n"
     "nl \"q\" back\\slash \001 per site (agg=sum).\n"
     "# TYPE ps_tab_here_nl__q__back_slash__ gauge\n"
     "ps_tab_here_nl__q__back_slash__{site=\"site-a\"} 1.25\n"
     "ps_tab_here_nl__q__back_slash__{site=\"aggregate\"} 1.25\n"
     "# HELP ps_golden_big_seconds Latency distribution of golden.big "
     "in seconds per site.\n"
     "# TYPE ps_golden_big_seconds histogram\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"1.77827941e-07\"} "
     "1\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"1.77827941e-05\"} "
     "2\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"3.16227766e-05\"} "
     "4\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"5.62341325e-05\"} "
     "6\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"0.0001\"} 10\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"0.000177827941\"} "
     "18\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"0.000316227766\"} "
     "32\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"0.000562341325\"} "
     "57\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"0.001\"} 101\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"0.00177827941\"} 1"
     "78\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"0.00316227766\"} 3"
     "17\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"0.00562341325\"} 5"
     "63\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"0.01\"} 1001\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"0.0177827941\"} 15"
     "00\n"
     "ps_golden_big_seconds_bucket{site=\"site-a\",le=\"+Inf\"} 1500\n"
     "ps_golden_big_seconds_sum{site=\"site-a\"} 11.2425\n"
     "ps_golden_big_seconds_count{site=\"site-a\"} 1500\n"
     "# HELP ps_golden_big_quantiles_seconds Latency quantiles of gold"
     "en.big in seconds per site.\n"
     "# TYPE ps_golden_big_quantiles_seconds summary\n"
     "ps_golden_big_quantiles_seconds{site=\"site-a\",quantile=\"0.5\"} 0."
     "00748695989\n"
     "ps_golden_big_quantiles_seconds{site=\"site-a\",quantile=\"0.99\"} 0"
     ".0175334016\n"
     "ps_golden_big_quantiles_seconds{site=\"site-a\",quantile=\"0.999\"} "
     "0.0177438177\n"
     "ps_golden_big_quantiles_seconds_sum{site=\"site-a\"} 11.2425\n"
     "ps_golden_big_quantiles_seconds_count{site=\"site-a\"} 1500\n"
     "# HELP ps_golden_lat_seconds Latency distribution of golden.lat "
     "in seconds per site.\n"
     "# TYPE ps_golden_lat_seconds histogram\n"
     "ps_golden_lat_seconds_bucket{site=\"site-a\",le=\"0.001\"} 1 # {trac"
     "e_id=\"0123456789abcdeffedcba9876543210\",span_id=\"77\"} 0.001 5\n"
     "ps_golden_lat_seconds_bucket{site=\"site-a\",le=\"0.00316227766\"} 3"
     " # {trace_id=\"0123456789abcdeffedcba9876543210\",span_id=\"77\"} 0."
     "003 5\n"
     "ps_golden_lat_seconds_bucket{site=\"site-a\",le=\"0.0316227766\"} 4 "
     "# {trace_id=\"0123456789abcdeffedcba9876543210\",span_id=\"77\"} 0.0"
     "25 5\n"
     "ps_golden_lat_seconds_bucket{site=\"site-a\",le=\"+Inf\"} 4\n"
     "ps_golden_lat_seconds_sum{site=\"site-a\"} 0.031\n"
     "ps_golden_lat_seconds_count{site=\"site-a\"} 4\n"
     "ps_golden_lat_seconds_bucket{site=\"tab\there\\nnl \\\"q\\\" back\\\\slas"
     "h \001\",le=\"0.00562341325\"} 1\n"
     "ps_golden_lat_seconds_bucket{site=\"tab\there\\nnl \\\"q\\\" back\\\\slas"
     "h \001\",le=\"+Inf\"} 1\n"
     "ps_golden_lat_seconds_sum{site=\"tab\there\\nnl \\\"q\\\" back\\\\slash \001"
     "\"} 0.004\n"
     "ps_golden_lat_seconds_count{site=\"tab\there\\nnl \\\"q\\\" back\\\\slash"
     " \001\"} 1\n"
     "# HELP ps_golden_lat_quantiles_seconds Latency quantiles of gold"
     "en.lat in seconds per site.\n"
     "# TYPE ps_golden_lat_quantiles_seconds summary\n"
     "ps_golden_lat_quantiles_seconds{site=\"site-a\",quantile=\"0.5\"} 0."
     "0025\n"
     "ps_golden_lat_quantiles_seconds{site=\"site-a\",quantile=\"0.99\"} 0"
     ".02434\n"
     "ps_golden_lat_quantiles_seconds{site=\"site-a\",quantile=\"0.999\"} "
     "0.024934\n"
     "ps_golden_lat_quantiles_seconds_sum{site=\"site-a\"} 0.031\n"
     "ps_golden_lat_quantiles_seconds_count{site=\"site-a\"} 4\n"
     "ps_golden_lat_quantiles_seconds{site=\"tab\there\\nnl \\\"q\\\" back\\\\s"
     "lash \001\",quantile=\"0.5\"} 0.004\n"
     "ps_golden_lat_quantiles_seconds{site=\"tab\there\\nnl \\\"q\\\" back\\\\s"
     "lash \001\",quantile=\"0.99\"} 0.004\n"
     "ps_golden_lat_quantiles_seconds{site=\"tab\there\\nnl \\\"q\\\" back\\\\s"
     "lash \001\",quantile=\"0.999\"} 0.004\n"
     "ps_golden_lat_quantiles_seconds_sum{site=\"tab\there\\nnl \\\"q\\\" bac"
     "k\\\\slash \001\"} 0.004\n"
     "ps_golden_lat_quantiles_seconds_count{site=\"tab\there\\nnl \\\"q\\\" b"
     "ack\\\\slash \001\"} 1\n"
     "# HELP ps_tab_here_nl__q__back_slash___seconds Latency distribut"
     "ion of tab\there\n"
     "nl \"q\" back\\slash \001 in seconds per site.\n"
     "# TYPE ps_tab_here_nl__q__back_slash___seconds histogram\n"
     "ps_tab_here_nl__q__back_slash___seconds_bucket{site=\"site-a\",le="
     "\"5.62341325e-06\"} 1\n"
     "ps_tab_here_nl__q__back_slash___seconds_bucket{site=\"site-a\",le="
     "\"0.001\"} 2\n"
     "ps_tab_here_nl__q__back_slash___seconds_bucket{site=\"site-a\",le="
     "\"0.316227766\"} 3\n"
     "ps_tab_here_nl__q__back_slash___seconds_bucket{site=\"site-a\",le="
     "\"1.77827941\"} 4\n"
     "ps_tab_here_nl__q__back_slash___seconds_bucket{site=\"site-a\",le="
     "\"+Inf\"} 4\n"
     "ps_tab_here_nl__q__back_slash___seconds_sum{site=\"site-a\"} 2.050"
     "754\n"
     "ps_tab_here_nl__q__back_slash___seconds_count{site=\"site-a\"} 4\n"
     "# HELP ps_tab_here_nl__q__back_slash___quantiles_seconds Latency"
     " quantiles of tab\there\n"
     "nl \"q\" back\\slash \001 in seconds per site.\n"
     "# TYPE ps_tab_here_nl__q__back_slash___quantiles_seconds summary"
     "\n"
     "ps_tab_here_nl__q__back_slash___quantiles_seconds{site=\"site-a\","
     "quantile=\"0.5\"} 0.150375\n"
     "ps_tab_here_nl__q__back_slash___quantiles_seconds{site=\"site-a\","
     "quantile=\"0.99\"} 1.7065\n"
     "ps_tab_here_nl__q__back_slash___quantiles_seconds{site=\"site-a\","
     "quantile=\"0.999\"} 1.74565\n"
     "ps_tab_here_nl__q__back_slash___quantiles_seconds_sum{site=\"site"
     "-a\"} 2.050754\n"
     "ps_tab_here_nl__q__back_slash___quantiles_seconds_count{site=\"si"
     "te-a\"} 4\n"
     "# EOF\n"},
    {"slo_report_json",
     "{\"slos\":[\n"
     " {\"name\":\"golden.lat.p99\",\"metric\":\"golden.lat\",\"percentile\":\"p9"
     "9\",\"threshold_s\":0.05,\"min_samples\":4,\"status\":\"pass\",\"observed_"
     "s\":0.024,\"samples\":4},\n"
     " {\"name\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"metric\":\"tab\\"
     "there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"percentile\":\"p999\",\"thresho"
     "ld_s\":0.5,\"min_samples\":4,\"status\":\"breach\",\"observed_s\":1.7,\"sa"
     "mples\":4},\n"
     " {\"name\":\"golden.absent.p50\",\"metric\":\"golden.absent\",\"percentil"
     "e\":\"p50\",\"threshold_s\":0.001,\"min_samples\":4,\"status\":\"insuffici"
     "ent_data\",\"observed_s\":0,\"samples\":0}\n"
     "],\"breaches\":1,\"passed\":0}\n"},
    {"slo_prometheus_text",
     "# HELP ps_slo_status SLO verdict per objective (0=pass, 1=breach"
     ", 2=insufficient_data).\n"
     "# TYPE ps_slo_status gauge\n"
     "ps_slo_status{objective=\"golden.lat.p99\"} 0\n"
     "ps_slo_status{objective=\"tab\there\\nnl \\\"q\\\" back\\\\slash \001\"} 1\n"
     "ps_slo_status{objective=\"golden.absent.p50\"} 2\n"
     "# HELP ps_slo_observed_seconds Observed quantile per objective.\n"
     "# TYPE ps_slo_observed_seconds gauge\n"
     "ps_slo_observed_seconds{objective=\"golden.lat.p99\"} 0.024\n"
     "ps_slo_observed_seconds{objective=\"tab\there\\nnl \\\"q\\\" back\\\\slas"
     "h \001\"} 1.7\n"
     "ps_slo_observed_seconds{objective=\"golden.absent.p50\"} 0\n"
     "# HELP ps_slo_threshold_seconds Declared bound per objective.\n"
     "# TYPE ps_slo_threshold_seconds gauge\n"
     "ps_slo_threshold_seconds{objective=\"golden.lat.p99\"} 0.05\n"
     "ps_slo_threshold_seconds{objective=\"tab\there\\nnl \\\"q\\\" back\\\\sla"
     "sh \001\"} 0.5\n"
     "ps_slo_threshold_seconds{objective=\"golden.absent.p50\"} 0.001\n"},
    {"SloReport::table",
     "objective                          tail     observed     target "
     " samples  status\n"
     "golden.lat.p99                     p99      24.00 ms   50.00 ms "
     "       4  pass\n"
     "tab\there\n"
     "nl \"q\" back\\slash \001       p999      1.700 s  500.00 ms        4 "
     " breach\n"
     "golden.absent.p50                  p50        0.0 us    1.00 ms "
     "       0  insufficient_data\n"},
    {"CriticalPath::json",
     "{\"critical_paths\":[\n"
     " {\"trace_id\":\"00000000000000010000000000000002\",\"root\":\"golden.r"
     "oot\",\"root_span_id\":10,\"vtime_s\":1,\"wall_s\":0.008,\"attributed_s\""
     ":1,\"span_count\":3,\"segments\":[{\"segment\":\"tab\\there\\nnl \\\"q\\\" ba"
     "ck\\\\slash \\u0001\",\"vtime_s\":0.4,\"spans\":1},{\"segment\":\"client\",\""
     "vtime_s\":0.3,\"spans\":1},{\"segment\":\"wire-transfer\",\"vtime_s\":0.3"
     ",\"spans\":1}]},\n"
     " {\"trace_id\":\"00000000000000030000000000000004\",\"root\":\"golden.o"
     "ther\",\"root_span_id\":20,\"vtime_s\":0.25,\"wall_s\":0.0025,\"attribut"
     "ed_s\":0.25,\"span_count\":1,\"segments\":[{\"segment\":\"other\",\"vtime_"
     "s\":0.25,\"spans\":1}]}\n"
     "]}\n"},
    {"Profile::table",
     "span (call tree)                                count       vtim"
     "e     vt-self        wall      w-self\n"
     "golden.root                                         1     1.000 "
     "s   300.00 ms     8.00 ms     3.00 ms\n"
     "  tab\there\n"
     "nl \"q\" back\\slash \001                      1   400.00 ms   400.00 "
     "ms     3.00 ms     3.00 ms\n"
     "  connector.get                                     1   300.00 m"
     "s   300.00 ms     2.00 ms     2.00 ms\n"
     "golden.other                                        1   250.00 m"
     "s   250.00 ms     2.50 ms     2.50 ms\n"},
    {"bench_artifact_json",
     "{\"schema_version\":3,\"bench\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0"
     "001\",\"seed\":1234,\"git_rev\":\"0123456789abcdef0123456789abcdef0123"
     "4567\",\"series\":{\n"
     "  \"golden.lat\":{\"count\":4,\"mean_s\":0.00775,\"p50_s\":0.0025,\"p99_s"
     "\":0.024,\"p999_s\":0.0249,\"min_s\":0.001,\"max_s\":0.025,\"sum_s\":0.03"
     "1,\"units\":\"s\",\"kind\":\"vtime\",\"attribution\":{\"trace_id\":\"01234567"
     "89abcdeffedcba9876543210\",\"span_id\":77,\"sample_s\":0.025,\"attribu"
     "ted_s\":0.025,\"segments\":[{\"segment\":\"wire-transfer\",\"vtime_s\":0."
     "02,\"spans\":3},{\"segment\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001"
     "\",\"vtime_s\":0.005,\"spans\":1}]}},\n"
     "  \"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\":{\"count\":4,\"mean_s\":0"
     ".00775,\"p50_s\":0.0025,\"p99_s\":0.024,\"p999_s\":0.0249,\"min_s\":0.00"
     "1,\"max_s\":0.025,\"sum_s\":0.031,\"units\":\"ratio\",\"kind\":\"wall\"}\n"
     " },\"slos\":[\n"
     "  {\"name\":\"golden.lat.p99\",\"metric\":\"golden.lat\",\"percentile\":\"p"
     "99\",\"threshold_s\":0.05,\"min_samples\":4,\"status\":\"pass\",\"observed"
     "_s\":0.024,\"samples\":4},\n"
     "  {\"name\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"metric\":\"tab"
     "\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"percentile\":\"p999\",\"thresh"
     "old_s\":0.5,\"min_samples\":4,\"status\":\"breach\",\"observed_s\":1.7,\"s"
     "amples\":4},\n"
     "  {\"name\":\"golden.absent.p50\",\"metric\":\"golden.absent\",\"percenti"
     "le\":\"p50\",\"threshold_s\":0.001,\"min_samples\":4,\"status\":\"insuffic"
     "ient_data\",\"observed_s\":0,\"samples\":0}\n"
     " ],\"profile_top\":[\n"
     "  {\"path\":\"golden.root;tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\""
     "count\":1,\"total_vtime_s\":0.4,\"self_vtime_s\":0.4,\"total_wall_s\":0"
     ".003,\"self_wall_s\":0.003},\n"
     "  {\"path\":\"golden.root\",\"count\":1,\"total_vtime_s\":1,\"self_vtime_"
     "s\":0.3,\"total_wall_s\":0.008,\"self_wall_s\":0.003},\n"
     "  {\"path\":\"golden.root;connector.get\",\"count\":1,\"total_vtime_s\":"
     "0.3,\"self_vtime_s\":0.3,\"total_wall_s\":0.002,\"self_wall_s\":0.002}"
     "\n"
     " ]}\n"},
    {"perfetto_trace_json",
     "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"site-a ["
     "vtime]\"}},\n"
     "{\"ph\":\"M\",\"pid\":1001,\"name\":\"process_name\",\"args\":{\"name\":\"site-"
     "a [wall]\"}},\n"
     "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"site-b ["
     "vtime]\"}},\n"
     "{\"ph\":\"M\",\"pid\":1002,\"name\":\"process_name\",\"args\":{\"name\":\"site-"
     "b [wall]\"}},\n"
     "{\"ph\":\"M\",\"pid\":3,\"name\":\"process_name\",\"args\":{\"name\":\"tab\\ther"
     "e\\nnl \\\"q\\\" back\\\\slash \\u0001 [vtime]\"}},\n"
     "{\"ph\":\"M\",\"pid\":1003,\"name\":\"process_name\",\"args\":{\"name\":\"tab\\t"
     "here\\nnl \\\"q\\\" back\\\\slash \\u0001 [wall]\"}},\n"
     "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"p"
     "roc-site-a\"}},\n"
     "{\"ph\":\"M\",\"pid\":1001,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\""
     ":\"proc-site-a\"}},\n"
     "{\"ph\":\"M\",\"pid\":2,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"p"
     "roc-site-b\"}},\n"
     "{\"ph\":\"M\",\"pid\":1002,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\""
     ":\"proc-site-b\"}},\n"
     "{\"ph\":\"M\",\"pid\":3,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"t"
     "ab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\"}},\n"
     "{\"ph\":\"M\",\"pid\":1003,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\""
     ":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\"}},\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"golden.root\",\"pid\":1,\"tid\":1,\"ts\""
     ":1000000.000,\"dur\":1000000.000,\"args\":{\"trace_id\":\"0000000000000"
     "0010000000000000002\",\"span_id\":10,\"parent_span_id\":0,\"kind\":\"cli"
     "ent\",\"process\":\"proc-site-a\",\"host\":\"host-site-a\",\"site\":\"site-a"
     "\"}},\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"golden.root\",\"pid\":1001,\"tid\":1,\""
     "ts\":1000.000,\"dur\":8000.000,\"args\":{\"trace_id\":\"0000000000000001"
     "0000000000000002\",\"span_id\":10,\"parent_span_id\":0,\"kind\":\"client"
     "\",\"process\":\"proc-site-a\",\"host\":\"host-site-a\",\"site\":\"site-a\"}}"
     ",\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"connector.get\",\"pid\":1,\"tid\":1,\"t"
     "s\":1100000.000,\"dur\":300000.000,\"args\":{\"trace_id\":\"000000000000"
     "00010000000000000002\",\"span_id\":11,\"parent_span_id\":10,\"process\""
     ":\"proc-site-a\",\"host\":\"host-site-a\",\"site\":\"site-a\",\"subject\":\"t"
     "ab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\"}},\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"connector.get\",\"pid\":1001,\"tid\":1"
     ",\"ts\":2000.000,\"dur\":2000.000,\"args\":{\"trace_id\":\"00000000000000"
     "010000000000000002\",\"span_id\":11,\"parent_span_id\":10,\"process\":\""
     "proc-site-a\",\"host\":\"host-site-a\",\"site\":\"site-a\",\"subject\":\"tab"
     "\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\"}},\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\"
     "u0001\",\"pid\":3,\"tid\":3,\"ts\":1500000.000,\"dur\":400000.000,\"args\":"
     "{\"trace_id\":\"00000000000000010000000000000002\",\"span_id\":12,\"par"
     "ent_span_id\":10,\"kind\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\","
     "\"process\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"host\":\"host-"
     "tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"site\":\"tab\\there\\nnl \\\""
     "q\\\" back\\\\slash \\u0001\"}},\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\"
     "u0001\",\"pid\":1003,\"tid\":3,\"ts\":5000.000,\"dur\":3000.000,\"args\":{\""
     "trace_id\":\"00000000000000010000000000000002\",\"span_id\":12,\"paren"
     "t_span_id\":10,\"kind\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"p"
     "rocess\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"host\":\"host-ta"
     "b\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"site\":\"tab\\there\\nnl \\\"q\\"
     "\" back\\\\slash \\u0001\"}},\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"golden.other\",\"pid\":2,\"tid\":2,\"ts"
     "\":500000.000,\"dur\":250000.000,\"args\":{\"trace_id\":\"00000000000000"
     "030000000000000004\",\"span_id\":20,\"parent_span_id\":0,\"process\":\"p"
     "roc-site-b\",\"host\":\"host-site-b\",\"site\":\"site-b\"}},\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"golden.other\",\"pid\":1002,\"tid\":2,"
     "\"ts\":10000.000,\"dur\":2500.000,\"args\":{\"trace_id\":\"00000000000000"
     "030000000000000004\",\"span_id\":20,\"parent_span_id\":0,\"process\":\"p"
     "roc-site-b\",\"host\":\"host-site-b\",\"site\":\"site-b\"}}\n"
     "]}\n"},
    {"FlightRecorder::dump_json",
     "{\"flight\":{\"reason\":\"slo-breach: tab\\there\\nnl \\\"q\\\" back\\\\slash"
     " \\u0001\",\"wall_s\":0.015000000,\"vtime_s\":2.250000000,\"span_count\""
     ":2},\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"site-a ["
     "vtime]\"}},\n"
     "{\"ph\":\"M\",\"pid\":1001,\"name\":\"process_name\",\"args\":{\"name\":\"site-"
     "a [wall]\"}},\n"
     "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"tab\\ther"
     "e\\nnl \\\"q\\\" back\\\\slash \\u0001 [vtime]\"}},\n"
     "{\"ph\":\"M\",\"pid\":1002,\"name\":\"process_name\",\"args\":{\"name\":\"tab\\t"
     "here\\nnl \\\"q\\\" back\\\\slash \\u0001 [wall]\"}},\n"
     "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"p"
     "roc-site-a\"}},\n"
     "{\"ph\":\"M\",\"pid\":1001,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\""
     ":\"proc-site-a\"}},\n"
     "{\"ph\":\"M\",\"pid\":2,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"t"
     "ab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\"}},\n"
     "{\"ph\":\"M\",\"pid\":1002,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\""
     ":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\"}},\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"golden.root\",\"pid\":1,\"tid\":1,\"ts\""
     ":1000000.000,\"dur\":1000000.000,\"args\":{\"trace_id\":\"0000000000000"
     "0010000000000000002\",\"span_id\":10,\"parent_span_id\":0,\"kind\":\"cli"
     "ent\",\"process\":\"proc-site-a\",\"host\":\"host-site-a\",\"site\":\"site-a"
     "\"}},\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"golden.root\",\"pid\":1001,\"tid\":1,\""
     "ts\":1000.000,\"dur\":8000.000,\"args\":{\"trace_id\":\"0000000000000001"
     "0000000000000002\",\"span_id\":10,\"parent_span_id\":0,\"kind\":\"client"
     "\",\"process\":\"proc-site-a\",\"host\":\"host-site-a\",\"site\":\"site-a\"}}"
     ",\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\"
     "u0001\",\"pid\":2,\"tid\":2,\"ts\":1500000.000,\"dur\":400000.000,\"args\":"
     "{\"trace_id\":\"00000000000000010000000000000002\",\"span_id\":12,\"par"
     "ent_span_id\":10,\"kind\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\","
     "\"process\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"host\":\"host-"
     "tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"site\":\"tab\\there\\nnl \\\""
     "q\\\" back\\\\slash \\u0001\"}},\n"
     "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\"
     "u0001\",\"pid\":1002,\"tid\":2,\"ts\":5000.000,\"dur\":3000.000,\"args\":{\""
     "trace_id\":\"00000000000000010000000000000002\",\"span_id\":12,\"paren"
     "t_span_id\":10,\"kind\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"p"
     "rocess\":\"tab\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"host\":\"host-ta"
     "b\\there\\nnl \\\"q\\\" back\\\\slash \\u0001\",\"site\":\"tab\\there\\nnl \\\"q\\"
     "\" back\\\\slash \\u0001\"}}\n"
     "]}\n"},
  };
  return kExpected;
}
// clang-format on

TEST(ObsGolden, EveryEmitterRendersTheCapturedBytes) {
  const auto rendered = render_every_emitter();
  ASSERT_EQ(rendered.size(), expected().size());
  for (const auto& [emitter, text] : rendered) {
    const auto it = expected().find(emitter);
    ASSERT_NE(it, expected().end()) << emitter;
    EXPECT_EQ(text, it->second) << emitter;
  }
}

}  // namespace
}  // namespace ps::obs
