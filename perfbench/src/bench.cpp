#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

namespace pb {

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * n)));
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(rank, samples.size()) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

std::uint64_t fingerprint(BytesView data) {
  constexpr std::uint64_t kMul = 0xff51afd7ed558ccdULL;
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ data.size();
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data.data() + i, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  for (; i < data.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * kMul;
  }
  return h ^ (h >> 29);
}

void ExactSamples::Free::operator()(std::uint32_t* p) const { std::free(p); }

ExactSamples::ExactSamples()
    : bins_(static_cast<std::uint32_t*>(
          std::calloc(kBins, sizeof(std::uint32_t)))) {
  if (!bins_) throw std::bad_alloc();
}

void ExactSamples::add(std::int64_t ns) {
  const auto value = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  if (value < kBins) {
    ++bins_[value];
  } else {
    overflow_.push_back(value);
  }
  if (head_s_.size() < kHead) head_s_.push_back(static_cast<double>(value) * 1e-9);
  ++count_;
}

void ExactSamples::merge(const ExactSamples& other) {
  for (std::size_t i = 0; i < kBins; ++i) {
    if (other.bins_[i] != 0) bins_[i] += other.bins_[i];
  }
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  for (const double s : other.head_s_) {
    if (head_s_.size() < kHead) head_s_.push_back(s);
  }
  count_ += other.count_;
}

double ExactSamples::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::min<std::uint64_t>(
      count_, static_cast<std::uint64_t>(std::max(
                  1.0, std::ceil(p / 100.0 * static_cast<double>(count_)))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBins; ++i) {
    seen += bins_[i];
    if (seen >= rank) return static_cast<double>(i);
  }
  std::vector<std::uint64_t> high = overflow_;
  std::sort(high.begin(), high.end());
  return static_cast<double>(high[rank - seen - 1]);
}

void OpLog::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(what);
}

void OpLog::merge(const OpLog& other) {
  wall_ns.merge(other.wall_ns);
  vt_ms.insert(vt_ms.end(), other.vt_ms.begin(), other.vt_ms.end());
  merge_counts(other);
}

void OpLog::merge_counts(const OpLog& other) {
  attempted += other.attempted;
  failed += other.failed;
  payload_bytes += other.payload_bytes;
  for (const std::string& e : other.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
}

bool is_workload(const std::string& name) {
  return name == "proxy_hot" || name == "wan_kv" || name == "bulk_swarm";
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool traced) {
  if (name == "proxy_hot") return make_proxy_hot(seed, traced);
  if (name == "wan_kv") return make_wan_kv(seed, traced);
  if (name == "bulk_swarm") return make_bulk_swarm(seed, traced);
  return nullptr;
}

}  // namespace pb
