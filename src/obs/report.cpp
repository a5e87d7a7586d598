#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/critical.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace ps::obs {

namespace {

std::nullopt_t schema_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return std::nullopt;
}

double num_or(const std::map<std::string, JsonValue>& obj,
              const std::string& key, double fallback) {
  const auto it = obj.find(key);
  return it != obj.end() && it->second.is_number() ? it->second.num()
                                                   : fallback;
}

std::string str_or(const std::map<std::string, JsonValue>& obj,
                   const std::string& key, const std::string& fallback) {
  const auto it = obj.find(key);
  return it != obj.end() && it->second.is_string() ? it->second.str()
                                                   : fallback;
}

}  // namespace

std::string git_revision(const std::string& start_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path dir = start_dir.empty() ? fs::current_path(ec) : fs::path(start_dir);
  if (ec) return "unknown";
  for (int depth = 0; depth < 64 && !dir.empty(); ++depth) {
    const fs::path head_path = dir / ".git" / "HEAD";
    if (fs::exists(head_path, ec)) {
      std::ifstream head(head_path);
      std::string line;
      if (!std::getline(head, line)) return "unknown";
      if (line.rfind("ref: ", 0) == 0) {
        std::ifstream ref(dir / ".git" / line.substr(5));
        std::string rev;
        if (std::getline(ref, rev) && !rev.empty()) return rev;
        return "unknown";
      }
      return line.empty() ? "unknown" : line;
    }
    const fs::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  return "unknown";
}

BenchArtifact collect_bench_artifact(
    const std::string& bench_name, std::uint64_t seed,
    const std::map<std::string, SeriesMeta>& series_meta,
    std::size_t profile_top_n) {
  BenchArtifact artifact;
  artifact.bench = bench_name;
  artifact.seed = seed;
  artifact.git_rev = git_revision();
  const MetricsRegistry& registry = MetricsRegistry::global();
  // Built lazily on the first series that actually has an exemplar.
  std::optional<CriticalPath> recorded_paths;
  for (const auto& [name, meta] : series_meta) {
    const Histogram* h = registry.find_histogram(name);
    if (h == nullptr || h->count() == 0) continue;
    SeriesStats stats;
    stats.count = h->count();
    stats.mean_s = h->mean();
    stats.p50_s = h->p50();
    stats.p99_s = h->p99();
    stats.p999_s = h->p999();
    stats.min_s = h->min();
    stats.max_s = h->max();
    stats.sum_s = h->sum();
    stats.units = meta.units;
    stats.kind = meta.kind;
    const Exemplar exemplar = h->max_exemplar();
    if (exemplar.valid()) {
      if (!recorded_paths) {
        recorded_paths = CriticalPath::from_recorder(TraceRecorder::global());
      }
      // Only a trace *root* explains the whole measured sample; an inner
      // hop's subtree would under-account and fail the 5% sum check.
      std::optional<CriticalPathReport> path = recorded_paths->for_span(
          exemplar.trace_hi, exemplar.trace_lo, exemplar.span_id,
          /*require_root=*/true);
      if (path) {
        SeriesAttribution attribution;
        attribution.trace_id = path->trace_id;
        attribution.span_id = exemplar.span_id;
        attribution.sample_s = exemplar.value_s;
        attribution.attributed_s = path->attributed_s;
        attribution.segments = std::move(path->segments);
        stats.attribution = std::move(attribution);
      }
    }
    artifact.series.emplace(name, stats);
  }
  const SloReport slo_report = SloRegistry::global().evaluate(registry);
  for (const SloVerdict& v : slo_report.verdicts) {
    SloResult result;
    result.name = v.objective.name;
    result.metric = v.objective.metric;
    result.percentile = v.objective.percentile;
    result.threshold_s = v.objective.threshold_s;
    result.min_samples = v.objective.min_samples;
    result.status = to_string(v.status);
    result.observed_s = v.observed_s;
    result.samples = v.samples;
    artifact.slos.push_back(std::move(result));
  }
  artifact.profile_top =
      Profile::from_recorder(TraceRecorder::global()).top_nodes(profile_top_n);
  return artifact;
}

std::string bench_artifact_json(const BenchArtifact& artifact) {
  std::string out = "{\"schema_version\":";
  out += std::to_string(artifact.schema_version);
  out += ",\"bench\":\"";
  json_escape_into(out, artifact.bench);
  out += "\",\"seed\":" + std::to_string(artifact.seed);
  out += ",\"git_rev\":\"";
  json_escape_into(out, artifact.git_rev);
  out += "\",\"series\":{";
  bool first = true;
  for (const auto& [name, s] : artifact.series) {
    json_comma(out, first);
    out += "\n  \"";
    json_escape_into(out, name);
    out += "\":{\"count\":" + std::to_string(s.count);
    out += ",\"mean_s\":" + fmt_double(s.mean_s);
    out += ",\"p50_s\":" + fmt_double(s.p50_s);
    out += ",\"p99_s\":" + fmt_double(s.p99_s);
    out += ",\"p999_s\":" + fmt_double(s.p999_s);
    out += ",\"min_s\":" + fmt_double(s.min_s);
    out += ",\"max_s\":" + fmt_double(s.max_s);
    out += ",\"sum_s\":" + fmt_double(s.sum_s);
    out += ",\"units\":\"";
    json_escape_into(out, s.units);
    out += "\",\"kind\":\"";
    json_escape_into(out, s.kind);
    out += "\"";
    if (s.attribution) {
      const SeriesAttribution& a = *s.attribution;
      out += ",\"attribution\":{\"trace_id\":\"";
      json_escape_into(out, a.trace_id);
      out += "\",\"span_id\":" + std::to_string(a.span_id);
      out += ",\"sample_s\":" + fmt_double(a.sample_s);
      out += ",\"attributed_s\":" + fmt_double(a.attributed_s);
      out += ",\"segments\":[";
      bool first_seg = true;
      for (const SegmentShare& seg : a.segments) {
        json_comma(out, first_seg);
        out += "{\"segment\":\"";
        json_escape_into(out, seg.segment);
        out += "\",\"vtime_s\":" + fmt_double(seg.vtime_s);
        out += ",\"spans\":" + std::to_string(seg.spans) + "}";
      }
      out += "]}";
    }
    out += "}";
  }
  out += "\n },\"slos\":[";
  first = true;
  for (const SloResult& slo : artifact.slos) {
    json_comma(out, first);
    out += "\n  {\"name\":\"";
    json_escape_into(out, slo.name);
    out += "\",\"metric\":\"";
    json_escape_into(out, slo.metric);
    out += "\",\"percentile\":\"";
    json_escape_into(out, slo.percentile);
    out += "\",\"threshold_s\":" + fmt_double(slo.threshold_s);
    out += ",\"min_samples\":" + std::to_string(slo.min_samples);
    out += ",\"status\":\"";
    json_escape_into(out, slo.status);
    out += "\",\"observed_s\":" + fmt_double(slo.observed_s);
    out += ",\"samples\":" + std::to_string(slo.samples);
    out += "}";
  }
  out += "\n ],\"profile_top\":[";
  first = true;
  for (const ProfileEntry& entry : artifact.profile_top) {
    json_comma(out, first);
    out += "\n  {\"path\":\"";
    json_escape_into(out, entry.path);
    out += "\",\"count\":" + std::to_string(entry.count);
    out += ",\"total_vtime_s\":" + fmt_double(entry.total_vtime_s);
    out += ",\"self_vtime_s\":" + fmt_double(entry.self_vtime_s);
    out += ",\"total_wall_s\":" + fmt_double(entry.total_wall_s);
    out += ",\"self_wall_s\":" + fmt_double(entry.self_wall_s);
    out += "}";
  }
  out += "\n ]}\n";
  return out;
}

bool write_bench_artifact(const std::string& path,
                          const BenchArtifact& artifact) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << bench_artifact_json(artifact);
  return static_cast<bool>(file);
}

std::optional<BenchArtifact> parse_bench_artifact(const std::string& text,
                                                  std::string* error) {
  std::optional<JsonValue> root = parse_json(text, error);
  if (!root) return std::nullopt;
  if (!root->is_object()) {
    return schema_error(error, "artifact is not a JSON object");
  }
  const auto& obj = root->obj();
  const auto version = obj.find("schema_version");
  if (version == obj.end() || !version->second.is_number()) {
    return schema_error(error, "missing schema_version");
  }
  BenchArtifact artifact;
  artifact.schema_version = static_cast<int>(version->second.num());
  // v1 artifacts (no p999 column, no SLO section) are still readable so a
  // schema bump never orphans blessed baselines mid-transition; anything
  // newer than this build is rejected.
  if (artifact.schema_version < 1 ||
      artifact.schema_version > kBenchSchemaVersion) {
    return schema_error(error, "unsupported schema_version " +
                                   std::to_string(artifact.schema_version));
  }
  const auto bench = obj.find("bench");
  if (bench == obj.end() || !bench->second.is_string() ||
      bench->second.str().empty()) {
    return schema_error(error, "missing bench name");
  }
  artifact.bench = bench->second.str();
  const auto seed = obj.find("seed");
  if (seed == obj.end() || !seed->second.is_number()) {
    return schema_error(error, "missing seed");
  }
  artifact.seed = static_cast<std::uint64_t>(seed->second.num());
  artifact.git_rev = str_or(obj, "git_rev", "unknown");

  const auto series = obj.find("series");
  if (series == obj.end() || !series->second.is_object()) {
    return schema_error(error, "missing series object");
  }
  for (const auto& [name, value] : series->second.obj()) {
    if (!value.is_object()) {
      return schema_error(error, "series '" + name + "' is not an object");
    }
    const auto& s = value.obj();
    const auto count = s.find("count");
    const auto mean = s.find("mean_s");
    if (count == s.end() || !count->second.is_number() || mean == s.end() ||
        !mean->second.is_number()) {
      return schema_error(error,
                          "series '" + name + "' missing count/mean_s");
    }
    SeriesStats stats;
    stats.count = static_cast<std::uint64_t>(count->second.num());
    stats.mean_s = mean->second.num();
    stats.p50_s = num_or(s, "p50_s", stats.mean_s);
    stats.p99_s = num_or(s, "p99_s", stats.mean_s);
    // v1 artifacts have no p999 column; the p99 value keeps vtime diffs
    // against them meaningful without inventing a tail.
    stats.p999_s = num_or(s, "p999_s", stats.p99_s);
    stats.min_s = num_or(s, "min_s", stats.mean_s);
    stats.max_s = num_or(s, "max_s", stats.mean_s);
    stats.sum_s = num_or(s, "sum_s", 0.0);
    stats.units = str_or(s, "units", "s");
    stats.kind = str_or(s, "kind", "vtime");
    if (stats.kind != "vtime" && stats.kind != "wall") {
      return schema_error(error, "series '" + name + "' has unknown kind '" +
                                     stats.kind + "'");
    }
    // Optional (v3) attribution: validated when present, never required —
    // v1/v2 artifacts and exemplar-free v3 series simply lack it.
    const auto attribution = s.find("attribution");
    if (attribution != s.end()) {
      if (!attribution->second.is_object()) {
        return schema_error(
            error, "series '" + name + "' attribution is not an object");
      }
      const auto& a = attribution->second.obj();
      SeriesAttribution attr;
      attr.trace_id = str_or(a, "trace_id", "");
      attr.span_id = static_cast<std::uint64_t>(num_or(a, "span_id", 0.0));
      attr.sample_s = num_or(a, "sample_s", 0.0);
      attr.attributed_s = num_or(a, "attributed_s", 0.0);
      const auto segments = a.find("segments");
      if (attr.trace_id.size() != 32 || segments == a.end() ||
          !segments->second.is_array() || segments->second.arr().empty()) {
        return schema_error(error, "series '" + name +
                                       "' attribution needs a 32-hex "
                                       "trace_id and a non-empty segments "
                                       "array");
      }
      for (const JsonValue& value : segments->second.arr()) {
        if (!value.is_object()) {
          return schema_error(
              error, "series '" + name + "' has a non-object segment");
        }
        const auto& seg = value.obj();
        SegmentShare share;
        share.segment = str_or(seg, "segment", "");
        if (share.segment.empty()) {
          return schema_error(
              error, "series '" + name + "' has a segment without a name");
        }
        share.vtime_s = num_or(seg, "vtime_s", 0.0);
        share.spans = static_cast<std::uint64_t>(num_or(seg, "spans", 0.0));
        attr.segments.push_back(std::move(share));
      }
      stats.attribution = std::move(attr);
    }
    artifact.series.emplace(name, stats);
  }

  const auto slos = obj.find("slos");
  if (artifact.schema_version >= 2 &&
      (slos == obj.end() || !slos->second.is_array())) {
    return schema_error(error, "missing slos array");
  }
  if (slos != obj.end() && slos->second.is_array()) {
    for (const JsonValue& value : slos->second.arr()) {
      if (!value.is_object()) {
        return schema_error(error, "slos entry is not an object");
      }
      const auto& s = value.obj();
      SloResult result;
      result.name = str_or(s, "name", "");
      result.metric = str_or(s, "metric", "");
      result.percentile = str_or(s, "percentile", "");
      result.status = str_or(s, "status", "");
      if (result.name.empty() || result.metric.empty()) {
        return schema_error(error, "slos entry missing name/metric");
      }
      if (result.status != "pass" && result.status != "breach" &&
          result.status != "insufficient_data") {
        return schema_error(error, "slo '" + result.name +
                                       "' has unknown status '" +
                                       result.status + "'");
      }
      result.threshold_s = num_or(s, "threshold_s", 0.0);
      result.min_samples =
          static_cast<std::uint64_t>(num_or(s, "min_samples", 1.0));
      result.observed_s = num_or(s, "observed_s", 0.0);
      result.samples = static_cast<std::uint64_t>(num_or(s, "samples", 0.0));
      artifact.slos.push_back(std::move(result));
    }
  }

  const auto profile = obj.find("profile_top");
  if (profile == obj.end() || !profile->second.is_array()) {
    return schema_error(error, "missing profile_top array");
  }
  for (const JsonValue& value : profile->second.arr()) {
    if (!value.is_object()) {
      return schema_error(error, "profile_top entry is not an object");
    }
    const auto& p = value.obj();
    ProfileEntry entry;
    entry.path = str_or(p, "path", "");
    if (entry.path.empty()) {
      return schema_error(error, "profile_top entry missing path");
    }
    entry.count = static_cast<std::uint64_t>(num_or(p, "count", 0.0));
    entry.total_vtime_s = num_or(p, "total_vtime_s", 0.0);
    entry.self_vtime_s = num_or(p, "self_vtime_s", 0.0);
    entry.total_wall_s = num_or(p, "total_wall_s", 0.0);
    entry.self_wall_s = num_or(p, "self_wall_s", 0.0);
    artifact.profile_top.push_back(std::move(entry));
  }
  return artifact;
}

std::optional<BenchArtifact> read_bench_artifact(const std::string& path,
                                                 std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    if (error != nullptr) *error = "cannot read '" + path + "'";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return parse_bench_artifact(buffer.str(), error);
}

namespace {

/// |a - b| within `rel` of max(|a|, |b|), treating tiny values as equal.
bool close(double a, double b, double rel) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= rel * std::max(scale, 1e-12);
}

}  // namespace

DiffResult diff_bench_artifacts(const BenchArtifact& baseline,
                                const BenchArtifact& candidate,
                                const DiffOptions& options) {
  DiffResult result;
  std::size_t failing = 0;
  for (const auto& [name, base] : baseline.series) {
    SeriesDelta delta;
    delta.name = name;
    delta.kind = base.kind;
    delta.base_count = base.count;
    delta.base_mean_s = base.mean_s;

    const auto it = candidate.series.find(name);
    if (it == candidate.series.end()) {
      delta.verdict = options.fail_on_missing ? "missing" : "ok";
      if (delta.verdict == "missing") ++failing;
      result.deltas.push_back(std::move(delta));
      continue;
    }
    const SeriesStats& cand = it->second;
    delta.cand_count = cand.count;
    delta.cand_mean_s = cand.mean_s;
    delta.rel_delta = base.mean_s == 0.0
                          ? 0.0
                          : (cand.mean_s - base.mean_s) / base.mean_s;

    if (base.kind == "vtime") {
      // Deterministic series: any difference — count or statistics — is
      // drift, faster or slower.
      const bool same =
          base.count == cand.count &&
          close(base.mean_s, cand.mean_s, options.vtime_rel_tol) &&
          close(base.p50_s, cand.p50_s, options.vtime_rel_tol) &&
          close(base.p99_s, cand.p99_s, options.vtime_rel_tol) &&
          close(base.p999_s, cand.p999_s, options.vtime_rel_tol) &&
          close(base.max_s, cand.max_s, options.vtime_rel_tol);
      delta.verdict = same ? "ok" : "drift";
    } else {
      // Wall clock: only a mean beyond the noise tolerance fails, and only
      // in the slow direction.
      const bool regressed =
          cand.mean_s > base.mean_s * (1.0 + options.wall_rel_tol);
      delta.verdict = regressed ? "regression" : "ok";
    }
    if (delta.verdict != "ok") ++failing;
    result.deltas.push_back(std::move(delta));
  }
  for (const auto& [name, cand] : candidate.series) {
    if (baseline.series.contains(name)) continue;
    SeriesDelta delta;
    delta.name = name;
    delta.kind = cand.kind;
    delta.cand_count = cand.count;
    delta.cand_mean_s = cand.mean_s;
    delta.verdict = "new";
    result.deltas.push_back(std::move(delta));
  }

  // The SLO gate: a candidate artifact carrying any breached objective
  // fails the diff even when every series matches its baseline — the
  // objective is a promise about absolute latency, not relative drift.
  for (const SloResult& slo : candidate.slos) {
    if (slo.status == "breach") result.slo_breaches.push_back(slo);
  }

  result.failed = failing > 0 || !result.slo_breaches.empty();
  char summary[160];
  if (!result.failed) {
    std::snprintf(summary, sizeof(summary),
                  "all %zu baseline series match, %zu SLO breaches",
                  baseline.series.size(), result.slo_breaches.size());
  } else if (failing == 0) {
    std::snprintf(summary, sizeof(summary),
                  "series match but %zu SLO objective%s breached",
                  result.slo_breaches.size(),
                  result.slo_breaches.size() == 1 ? " is" : "s are");
  } else {
    std::snprintf(summary, sizeof(summary),
                  "%zu of %zu baseline series drifted or regressed, "
                  "%zu SLO breaches",
                  failing, baseline.series.size(),
                  result.slo_breaches.size());
  }
  result.summary = summary;
  return result;
}

}  // namespace ps::obs
