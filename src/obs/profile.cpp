#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"

namespace ps::obs {

namespace {

/// A span id qualified by its trace: span ids are process-wide sequential,
/// but defensively never merge spans across distinct traces.
using SpanKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

SpanKey key_of(const TraceContext& ctx, std::uint64_t span_id) {
  return {ctx.trace_hi, ctx.trace_lo, span_id};
}

/// Mutable aggregation node; converted to the public ProfileNode at the end.
struct Builder {
  std::string name;
  std::uint64_t count = 0;
  double total_wall = 0.0;
  double self_wall = 0.0;
  double total_vtime = 0.0;
  double self_vtime = 0.0;
  std::map<std::string, Builder> children;
};

ProfileNode finish(const std::string& name, const Builder& b) {
  ProfileNode node;
  node.name = name;
  node.count = b.count;
  node.total_wall_s = b.total_wall;
  node.self_wall_s = b.self_wall;
  node.total_vtime_s = b.total_vtime;
  node.self_vtime_s = b.self_vtime;
  node.children.reserve(b.children.size());
  for (const auto& [child_name, child] : b.children) {
    node.children.push_back(finish(child_name, child));
  }
  std::sort(node.children.begin(), node.children.end(),
            [](const ProfileNode& a, const ProfileNode& c) {
              if (a.total_vtime_s != c.total_vtime_s) {
                return a.total_vtime_s > c.total_vtime_s;
              }
              if (a.total_wall_s != c.total_wall_s) {
                return a.total_wall_s > c.total_wall_s;
              }
              return a.name < c.name;
            });
  return node;
}

void append_folded(std::string& out, const std::string& prefix,
                   const ProfileNode& node, bool vtime) {
  const std::string path =
      prefix.empty() ? node.name : prefix + ";" + node.name;
  const double self = vtime ? node.self_vtime_s : node.self_wall_s;
  char buf[32];
  std::snprintf(buf, sizeof(buf), " %llu\n",
                static_cast<unsigned long long>(std::llround(self * 1e9)));
  out += path;
  out += buf;
  for (const ProfileNode& child : node.children) {
    append_folded(out, path, child, vtime);
  }
}

void append_table(std::string& out, const ProfileNode& node, int depth) {
  char line[256];
  std::string label(static_cast<std::size_t>(depth) * 2, ' ');
  label += node.name;
  if (label.size() > 44) label.resize(44);
  std::snprintf(line, sizeof(line), "%-44s %8llu %11s %11s %11s %11s\n",
                label.c_str(), static_cast<unsigned long long>(node.count),
                fmt_latency(node.total_vtime_s).c_str(),
                fmt_latency(node.self_vtime_s).c_str(),
                fmt_latency(node.total_wall_s).c_str(),
                fmt_latency(node.self_wall_s).c_str());
  out += line;
  for (const ProfileNode& child : node.children) {
    append_table(out, child, depth + 1);
  }
}

void collect_entries(const ProfileNode& node, const std::string& prefix,
                     std::vector<ProfileEntry>& out) {
  const std::string path =
      prefix.empty() ? node.name : prefix + ";" + node.name;
  out.push_back({path, node.count, node.total_wall_s, node.self_wall_s,
                 node.total_vtime_s, node.self_vtime_s});
  for (const ProfileNode& child : node.children) {
    collect_entries(child, path, out);
  }
}

}  // namespace

Profile Profile::from_spans(const std::vector<SpanRecord>& spans) {
  // Resolve each span's name path by walking recorded parents, then merge
  // paths into a trie of Builders.
  std::map<SpanKey, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) {
    by_id.emplace(key_of(span.ctx, span.ctx.span_id), &span);
  }

  // Per-span child durations (children that were actually recorded), to
  // compute per-span self time before aggregation.
  std::map<SpanKey, double> child_wall;
  std::map<SpanKey, double> child_vtime;
  for (const SpanRecord& span : spans) {
    const auto parent = by_id.find(key_of(span.ctx, span.ctx.parent_span_id));
    if (parent == by_id.end()) continue;
    const SpanKey pk = key_of(span.ctx, span.ctx.parent_span_id);
    child_wall[pk] += span.wall_end - span.wall_start;
    child_vtime[pk] += span.vtime_end - span.vtime_start;
  }

  std::map<std::string, Builder> roots;
  std::vector<const SpanRecord*> chain;
  for (const SpanRecord& span : spans) {
    // Walk up to the deepest recorded ancestor (bounded: parent links form
    // a tree; guard against cycles from id reuse anyway).
    chain.clear();
    const SpanRecord* cursor = &span;
    while (cursor != nullptr && chain.size() < 512) {
      chain.push_back(cursor);
      const auto parent =
          by_id.find(key_of(cursor->ctx, cursor->ctx.parent_span_id));
      cursor = parent == by_id.end() ? nullptr : parent->second;
    }

    std::map<std::string, Builder>* level = &roots;
    Builder* node = nullptr;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      node = &(*level)[(*it)->name];
      node->name = (*it)->name;
      level = &node->children;
    }

    const double wall = span.wall_end - span.wall_start;
    const double vtime = span.vtime_end - span.vtime_start;
    const SpanKey sk = key_of(span.ctx, span.ctx.span_id);
    const auto cw = child_wall.find(sk);
    const auto cv = child_vtime.find(sk);
    node->count += 1;
    node->total_wall += wall;
    node->total_vtime += vtime;
    node->self_wall +=
        std::max(0.0, wall - (cw == child_wall.end() ? 0.0 : cw->second));
    node->self_vtime +=
        std::max(0.0, vtime - (cv == child_vtime.end() ? 0.0 : cv->second));
  }

  Profile profile;
  profile.roots_.reserve(roots.size());
  for (const auto& [name, builder] : roots) {
    profile.roots_.push_back(finish(name, builder));
  }
  std::sort(profile.roots_.begin(), profile.roots_.end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              if (a.total_vtime_s != b.total_vtime_s) {
                return a.total_vtime_s > b.total_vtime_s;
              }
              return a.name < b.name;
            });
  return profile;
}

Profile Profile::from_recorder(const TraceRecorder& recorder) {
  return from_spans(recorder.spans());
}

double Profile::total_vtime_s() const {
  double total = 0.0;
  for (const ProfileNode& root : roots_) total += root.total_vtime_s;
  return total;
}

double Profile::total_wall_s() const {
  double total = 0.0;
  for (const ProfileNode& root : roots_) total += root.total_wall_s;
  return total;
}

std::string Profile::folded(bool vtime) const {
  std::string out;
  for (const ProfileNode& root : roots_) {
    append_folded(out, "", root, vtime);
  }
  return out;
}

std::vector<ProfileEntry> Profile::top_nodes(std::size_t n) const {
  std::vector<ProfileEntry> entries;
  for (const ProfileNode& root : roots_) collect_entries(root, "", entries);
  std::sort(entries.begin(), entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.self_vtime_s != b.self_vtime_s) {
                return a.self_vtime_s > b.self_vtime_s;
              }
              if (a.self_wall_s != b.self_wall_s) {
                return a.self_wall_s > b.self_wall_s;
              }
              return a.path < b.path;
            });
  if (entries.size() > n) entries.resize(n);
  return entries;
}

std::string Profile::table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-44s %8s %11s %11s %11s %11s\n",
                "span (call tree)", "count", "vtime", "vt-self", "wall",
                "w-self");
  out += line;
  for (const ProfileNode& root : roots_) {
    append_table(out, root, 0);
  }
  return out;
}

}  // namespace ps::obs
