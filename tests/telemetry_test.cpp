// Telemetry plane: registry snapshots, windowed deltas, cross-site merge,
// federation over the rpc wire, and burn-rate SLO evaluation (DESIGN.md
// §12). The exactness tests are the heart: merging every window of a run
// must reproduce the whole-run histogram bit for bit, and splitting a
// workload across scoped registries then merging must equal the unsplit
// registry — telemetry is a decomposition, never an approximation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/fabric.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "proc/process.hpp"
#include "proc/world.hpp"
#include "serde/serde.hpp"
#include "sim/vtime.hpp"
#include "telemetry/agent.hpp"
#include "telemetry/aggregator.hpp"

namespace ps::obs {
namespace {

// Deterministic latency series: spread over several histogram buckets,
// including sub-microsecond and tail values.
double sample_value(std::uint64_t i) {
  const double base[] = {3e-7, 1.2e-6, 4.5e-5, 9e-4, 2.3e-3, 8e-2, 1.7e-1};
  return base[i % 7] * (1.0 + static_cast<double>(i % 13) * 0.01);
}

RegistrySnapshot snap(const MetricsRegistry& reg, double vtime) {
  return reg.take_snapshot(vtime);
}

void expect_histograms_identical(const HistogramSnapshot& a,
                                 const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum_ns, b.sum_ns);
  EXPECT_EQ(a.min_ns, b.min_ns);
  EXPECT_EQ(a.max_ns, b.max_ns);
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
  }
  // Bit-identical percentiles, not approximately equal.
  EXPECT_EQ(a.p50(), b.p50());
  EXPECT_EQ(a.p99(), b.p99());
  EXPECT_EQ(a.p999(), b.p999());
}

// ------------------------------------------------ windowed exactness ----

TEST(TelemetryWindows, MergedWindowsReproduceWholeRunExactly) {
  // 600 samples (within the reservoir), scraped into 7 uneven windows.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("op");
  Counter& c = reg.counter("ops");
  TelemetryWindows windows;
  windows.feed(snap(reg, 0.0));  // seed

  const std::uint64_t kTotal = 600;
  const std::uint64_t cuts[] = {13, 100, 101, 350, 351, 500, kTotal};
  std::uint64_t fed = 0;
  for (std::uint64_t cut : cuts) {
    for (; fed < cut; ++fed) {
      h.observe(sample_value(fed));
      c.inc();
    }
    windows.feed(snap(reg, static_cast<double>(cut)));
  }
  ASSERT_EQ(windows.windows().size(), 7u);

  const RegistrySnapshot whole = snap(reg, 1000.0);
  const RegistrySnapshot merged = windows.merged_all();
  ASSERT_TRUE(merged.histograms.count("op"));
  expect_histograms_identical(merged.histograms.at("op"),
                              whole.histograms.at("op"));
  // The reservoir recomposes to the exact whole-run sample prefix, so the
  // percentile path is the Stats-exact one on both sides.
  EXPECT_EQ(merged.histograms.at("op").reservoir,
            whole.histograms.at("op").reservoir);
  EXPECT_EQ(merged.counters.at("ops"), kTotal);
  EXPECT_EQ(windows.clamped(), 0u);
}

TEST(TelemetryWindows, MergedWindowsExactBeyondReservoir) {
  // 3000 samples: past the 1024-sample reservoir, both sides fall back to
  // bucket interpolation over identical buckets — still bit-identical.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("op");
  TelemetryWindows windows;
  windows.feed(snap(reg, 0.0));

  const std::uint64_t kTotal = 3000;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    h.observe(sample_value(i));
    if ((i + 1) % 400 == 0) windows.feed(snap(reg, static_cast<double>(i)));
  }
  windows.feed(snap(reg, static_cast<double>(kTotal)));

  const RegistrySnapshot whole = snap(reg, 1e9);
  const RegistrySnapshot merged = windows.merged_all();
  expect_histograms_identical(merged.histograms.at("op"),
                              whole.histograms.at("op"));
}

TEST(TelemetrySnapshot, PercentileMirrorsLiveHistogram) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("op");
  for (std::uint64_t i = 0; i < 257; ++i) h.observe(sample_value(i));
  const RegistrySnapshot s = snap(reg, 0.0);
  const HistogramSnapshot& hs = s.histograms.at("op");
  for (double p : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(hs.percentile(p), h.percentile(p)) << "p" << p;
  }
}

// ------------------------------------------------- scoped split merge ----

TEST(TelemetryMerge, SplitRegistriesMergeBackToUnsplitRegistry) {
  // The same deterministic workload recorded twice: once into a single
  // registry, once split across three scoped registries round-robin. The
  // cross-space merge of the split must equal the unsplit whole.
  MetricsRegistry whole;
  MetricsRegistry parts[3];
  for (std::uint64_t i = 0; i < 900; ++i) {
    const double v = sample_value(i);
    whole.histogram("op").observe(v);
    whole.counter("ops").inc();
    parts[i % 3].histogram("op").observe(v);
    parts[i % 3].counter("ops").inc();
  }
  std::vector<RegistrySnapshot> split;
  for (const MetricsRegistry& part : parts) split.push_back(snap(part, 1.0));
  const RegistrySnapshot merged = merge_registry_snapshots(split);
  const RegistrySnapshot expected = snap(whole, 1.0);
  EXPECT_EQ(merged.counters.at("ops"), expected.counters.at("ops"));
  const HistogramSnapshot& m = merged.histograms.at("op");
  const HistogramSnapshot& e = expected.histograms.at("op");
  EXPECT_EQ(m.count, e.count);
  EXPECT_EQ(m.sum_ns, e.sum_ns);
  EXPECT_EQ(m.min_ns, e.min_ns);
  EXPECT_EQ(m.max_ns, e.max_ns);
  EXPECT_EQ(m.buckets, e.buckets);
}

TEST(TelemetryMerge, GaugeAggregationHintsHonored) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.gauge("queue.depth", GaugeAgg::kSum).set(3.0);
  b.gauge("queue.depth", GaugeAgg::kSum).set(4.0);
  a.gauge("queue.wait", GaugeAgg::kMax).set(0.25);
  b.gauge("queue.wait", GaugeAgg::kMax).set(0.75);
  a.gauge("phase", GaugeAgg::kLast).set(1.0);
  b.gauge("phase", GaugeAgg::kLast).set(2.0);
  // b is the fresher snapshot: last-write gauges take its value.
  const RegistrySnapshot merged =
      merge_registry_snapshots({snap(a, 1.0), snap(b, 2.0)});
  EXPECT_DOUBLE_EQ(merged.gauges.at("queue.depth").value, 7.0);
  EXPECT_EQ(merged.gauges.at("queue.depth").agg_hint(), GaugeAgg::kSum);
  EXPECT_DOUBLE_EQ(merged.gauges.at("queue.wait").value, 0.75);
  EXPECT_DOUBLE_EQ(merged.gauges.at("phase").value, 2.0);
  // Reversed feed order must not change last-write resolution (vtime wins,
  // not position).
  const RegistrySnapshot reversed =
      merge_registry_snapshots({snap(b, 2.0), snap(a, 1.0)});
  EXPECT_DOUBLE_EQ(reversed.gauges.at("phase").value, 2.0);
}

// ----------------------------------------------------- clamp counting ----

TEST(TelemetryWindows, ResetClampsToZeroAndCountsTheClamp) {
  MetricsRegistry scraper;
  MetricsRegistry* previous = set_ambient_registry(&scraper);
  {
    MetricsRegistry reg;
    reg.counter("ops").inc(100);
    TelemetryWindows windows;
    windows.feed(snap(reg, 0.0));
    // Simulate a registry reset (process restart): the next cumulative
    // snapshot is *smaller*. The delta must clamp to zero, never go
    // negative, and the clamp must be counted on the scraper's side.
    RegistrySnapshot shrunk = snap(reg, 1.0);
    shrunk.counters["ops"] = 40;
    windows.feed(shrunk);
    ASSERT_EQ(windows.windows().size(), 1u);
    EXPECT_EQ(windows.windows().back().delta.counters.at("ops"), 0u);
    EXPECT_GE(windows.clamped(), 1u);
    EXPECT_GE(scraper.counter("telemetry.rate.clamped").value(),
              windows.clamped());
  }
  set_ambient_registry(previous);
}

// ------------------------------------------------------- prom export ----

TEST(TelemetryFederation, PromSiteLabelsEscapedAndTerminated) {
  std::map<std::string, RegistrySnapshot> by_site;
  MetricsRegistry good;
  good.counter("ops").inc(7);
  good.histogram("op").observe(0.001);
  by_site["theta"] = snap(good, 1.0);
  // Hostile site name: quotes, backslashes, and a newline must all
  // round-trip through the label escaper without breaking line framing.
  const std::string hostile = "evil\"site\\with\nnewline";
  MetricsRegistry bad;
  bad.counter("ops").inc(3);
  by_site[hostile] = snap(bad, 1.0);

  const std::string text = federated_prometheus_text(by_site);
  // OpenMetrics termination.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  // Every site label uses the canonical escaping.
  EXPECT_NE(text.find("site=\"" + prom_label_escape("theta") + "\""),
            std::string::npos);
  EXPECT_NE(text.find("site=\"" + prom_label_escape(hostile) + "\""),
            std::string::npos);
  // Line framing survives the hostile name: every non-comment, non-empty
  // line is exactly one sample — metric name, one balanced label block, a
  // value — and no raw quote leaks outside a label string.
  std::size_t samples = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    ++samples;
    EXPECT_EQ(line.rfind("ps_", 0), 0u) << line;
    const std::size_t open = line.find('{');
    const std::size_t close = line.rfind('}');
    ASSERT_NE(open, std::string::npos) << line;
    ASSERT_NE(close, std::string::npos) << line;
    EXPECT_LT(open, close) << line;
    EXPECT_NE(line.find(' ', close), std::string::npos) << line;
  }
  EXPECT_GT(samples, 0u);

  const std::string json = federated_metrics_json(by_site);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
}

// ---------------------------------------------------- wire federation ----

class TelemetryWireTest : public ::testing::Test {
 protected:
  TelemetryWireTest() {
    world_ = std::make_unique<proc::World>();
    world_->fabric().add_site("hpc", net::rdma_fabric(2e-6, 25e9));
    world_->fabric().add_site("cloud", net::hpc_interconnect(20e-6, 5e9));
    world_->fabric().add_host("hpc-0", "hpc");
    world_->fabric().add_host("cloud-0", "cloud");
    world_->fabric().connect_sites("hpc", "cloud", net::wan_tcp(0.030, 1e9));
    world_->set_metrics_scoping(true);
  }
  ~TelemetryWireTest() override { world_->set_metrics_scoping(false); }

  std::unique_ptr<proc::World> world_;
};

TEST_F(TelemetryWireTest, AgentServesScopedRegistriesOverRpc) {
  proc::Process& hpc_worker = world_->spawn("w0", "hpc-0");
  proc::Process& cloud_worker = world_->spawn("c0", "cloud-0");
  {
    proc::ProcessScope scope(hpc_worker);
    MetricsRegistry::ambient().counter("work.items").inc(11);
    MetricsRegistry::ambient().histogram("work.lat").observe(0.002);
  }
  {
    proc::ProcessScope scope(cloud_worker);
    MetricsRegistry::ambient().counter("work.items").inc(5);
  }

  auto hpc_agent = telemetry::TelemetryAgent::start(*world_, "hpc-0");
  auto cloud_agent = telemetry::TelemetryAgent::start(*world_, "cloud-0");
  EXPECT_EQ(hpc_agent->site(), "hpc");
  EXPECT_EQ(cloud_agent->site(), "cloud");

  telemetry::TelemetryAggregator aggregator;
  aggregator.add_agent(hpc_agent->address());
  aggregator.add_agent(cloud_agent->address());

  proc::Process& monitor = world_->spawn("mon", "cloud-0");
  proc::ProcessScope scope(monitor);
  const double before = sim::vnow();
  const auto round = aggregator.scrape_all();
  // Scraping crossed the fabric: it must have cost virtual time.
  EXPECT_GT(sim::vnow(), before);

  ASSERT_EQ(round.size(), 2u);
  EXPECT_EQ(round.at("hpc").registry.counters.at("work.items"), 11u);
  EXPECT_EQ(round.at("hpc").registry.histograms.at("work.lat").count, 1u);
  // The monitor's own scoped registry must not leak into hpc's snapshot.
  EXPECT_EQ(round.at("cloud").registry.counters.at("work.items"), 5u);

  const RegistrySnapshot aggregate = aggregator.aggregate();
  EXPECT_EQ(aggregate.counters.at("work.items"), 16u);

  // Snapshot round-trips the serde wire format losslessly.
  const SiteSnapshot& wire = aggregator.latest().at("hpc");
  const auto redecoded =
      serde::from_bytes<SiteSnapshot>(serde::to_bytes(wire));
  EXPECT_EQ(redecoded.site, wire.site);
  EXPECT_EQ(redecoded.registry.counters, wire.registry.counters);
}

TEST_F(TelemetryWireTest, ScopingOffKeepsAmbientGlobal) {
  world_->set_metrics_scoping(false);
  proc::Process& p = world_->spawn("p-off", "hpc-0");
  proc::ProcessScope scope(p);
  EXPECT_EQ(&MetricsRegistry::ambient(), &MetricsRegistry::global());
}

// ------------------------------------------------------- burn rate ----

TEST(SloBurnRate, FastAndSlowWindowsMustBothBreach) {
  SloRegistry slos;
  SloObjective burn{"svc.p99.burn", "svc.op", "p99",
                    /*threshold_s=*/0.010, /*min_samples=*/8};
  burn.burn_fast_window_s = 1.0;
  burn.burn_slow_window_s = 3.0;
  slos.declare(burn);
  // Whole-run-only objectives are skipped by evaluate_burn.
  slos.declare({"svc.p99.whole", "svc.op", "p99", 0.010, 8});

  MetricsRegistry reg;
  Histogram& h = reg.histogram("svc.op");
  TelemetryWindows windows;
  windows.feed(reg.take_snapshot(0.0));

  // Three healthy windows: 1 ms ops.
  for (int w = 1; w <= 3; ++w) {
    for (int i = 0; i < 32; ++i) h.observe(0.001);
    windows.feed(reg.take_snapshot(static_cast<double>(w)));
  }
  SloReport report = slos.evaluate_burn(windows);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].objective.name, "svc.p99.burn");
  EXPECT_EQ(report.verdicts[0].status, SloStatus::kPass);

  // A regression confined to the fast window: the slow window still holds
  // enough healthy samples that its p99... both windows now contain the
  // spike (fast window is entirely bad, slow window's p99 is dragged over
  // the threshold too once bad samples dominate its tail) — keep feeding
  // until both breach.
  for (int w = 4; w <= 6; ++w) {
    for (int i = 0; i < 32; ++i) h.observe(0.050);
    windows.feed(reg.take_snapshot(static_cast<double>(w)));
  }
  report = slos.evaluate_burn(windows);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].status, SloStatus::kBreach);
  EXPECT_GT(report.verdicts[0].observed_s, 0.010);
  EXPECT_GT(report.verdicts[0].slow_observed_s, 0.010);

  // Insufficient data: a trailing fast window with too few samples must
  // report insufficient, not pass or breach.
  for (int i = 0; i < 2; ++i) h.observe(0.050);
  windows.feed(reg.take_snapshot(7.0));
  TelemetryWindows sparse;
  sparse.feed(reg.take_snapshot(10.0));
  for (int i = 0; i < 3; ++i) h.observe(0.050);
  sparse.feed(reg.take_snapshot(11.0));
  report = slos.evaluate_burn(sparse);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].status, SloStatus::kInsufficientData);
}

// ------------------------------------------------------ TSan race ----

TEST(TelemetryRace, WritersVersusWindowedScrapes) {
  // Writers hammer one registry while a scraper snapshots it into a window
  // ring. Under -DPS_SANITIZE=thread this is the data-race probe for the
  // whole snapshot path; in any build it asserts the monotonicity
  // guarantees: no negative deltas, merged counts never exceed the final
  // cumulative count.
  MetricsRegistry reg;
  Counter& ops = reg.counter("ops");
  Histogram& lat = reg.histogram("lat");
  std::atomic<bool> stop{false};

  TelemetryWindows windows(/*capacity=*/1 << 20);
  // Seed while the registry is still empty: merged_all() telescopes to
  // (final cumulative - seed), so the baseline must predate every write.
  windows.feed(reg.take_snapshot(0.0));

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 20000; ++i) {
        ops.inc();
        lat.observe(sample_value(i * 4 + static_cast<std::uint64_t>(t)));
      }
    });
  }
  std::thread scraper([&] {
    double vtime = 0.0;
    while (!stop.load(std::memory_order_acquire)) {
      windows.feed(reg.take_snapshot(vtime));
      vtime += 1.0;
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  scraper.join();
  windows.feed(reg.take_snapshot(1e6));

  const RegistrySnapshot merged = windows.merged_all();
  const RegistrySnapshot whole = reg.take_snapshot(1e6 + 1);
  EXPECT_EQ(whole.counters.at("ops"), 80000u);
  // Quiescent scrape after all writers joined: the ring has seen every
  // increment, and clamping guarantees it never over-counts.
  EXPECT_EQ(merged.counters.at("ops"), 80000u);
  EXPECT_EQ(merged.histograms.at("lat").count, 80000u);
  for (const TelemetryWindows::Window& w : windows.windows()) {
    for (const auto& [name, value] : w.delta.counters) {
      EXPECT_LE(value, 80000u);
    }
  }
}

}  // namespace
}  // namespace ps::obs
