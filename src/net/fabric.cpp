#include "net/fabric.hpp"

#include <algorithm>

namespace ps::net {

double Route::transfer_time(std::size_t bytes) const {
  double total = 0.0;
  for (const Hop& hop : hops) total += hop.profile.transfer_time(bytes);
  return total;
}

double Route::rtt() const {
  double one_way = 0.0;
  for (const Hop& hop : hops) {
    one_way += hop.profile.latency_s + hop.profile.per_msg_overhead_s;
  }
  return 2.0 * one_way;
}

Fabric::Fabric() : loopback_(loopback_profile()) {}

Site& Fabric::add_site(std::string name, LinkProfile interconnect,
                       bool behind_nat) {
  auto [it, inserted] = sites_.emplace(
      name, Site{.name = name, .behind_nat = behind_nat,
                 .interconnect = interconnect});
  if (!inserted) throw ConnectorError("Fabric: duplicate site " + name);
  return it->second;
}

Host& Fabric::add_host(std::string name, const std::string& site) {
  return add_host(std::move(name), site, Host{});
}

Host& Fabric::add_host(std::string name, const std::string& site,
                       Host traits) {
  if (!sites_.contains(site)) {
    throw ConnectorError("Fabric: unknown site " + site);
  }
  traits.name = name;
  traits.site = site;
  auto [it, inserted] = hosts_.emplace(name, std::move(traits));
  if (!inserted) throw ConnectorError("Fabric: duplicate host " + name);
  return it->second;
}

void Fabric::connect_sites(const std::string& a, const std::string& b,
                           LinkProfile profile) {
  if (!sites_.contains(a) || !sites_.contains(b)) {
    throw ConnectorError("Fabric: connect_sites with unknown site");
  }
  wan_links_[{std::min(a, b), std::max(a, b)}] = profile;
}

const Site& Fabric::site(const std::string& name) const {
  const auto it = sites_.find(name);
  if (it == sites_.end()) throw ConnectorError("Fabric: unknown site " + name);
  return it->second;
}

const Host& Fabric::host(const std::string& name) const {
  const auto it = hosts_.find(name);
  if (it == hosts_.end()) throw ConnectorError("Fabric: unknown host " + name);
  return it->second;
}

bool Fabric::has_host(const std::string& name) const {
  return hosts_.contains(name);
}

std::vector<std::string> Fabric::hosts_in_site(const std::string& site) const {
  std::vector<std::string> out;
  for (const auto& [name, h] : hosts_) {
    if (h.site == site) out.push_back(name);
  }
  return out;
}

const LinkProfile& Fabric::wan_link(const std::string& site_a,
                                    const std::string& site_b) const {
  const auto it =
      wan_links_.find({std::min(site_a, site_b), std::max(site_a, site_b)});
  if (it == wan_links_.end()) {
    throw ConnectorError("Fabric: no WAN link between " + site_a + " and " +
                         site_b);
  }
  return it->second;
}

Route Fabric::route(const std::string& from, const std::string& to) const {
  const Host& src = host(from);
  const Host& dst = host(to);
  Route r;
  if (from == to) {
    r.hops.push_back(Hop{from, to, loopback_});
    return r;
  }
  if (src.site == dst.site) {
    r.hops.push_back(Hop{from, to, site(src.site).interconnect});
    return r;
  }
  r.requires_nat_traversal =
      site(src.site).behind_nat && site(dst.site).behind_nat;

  const auto direct =
      wan_links_.find({std::min(src.site, dst.site),
                       std::max(src.site, dst.site)});
  if (direct != wan_links_.end()) {
    r.hops.push_back(Hop{from, to, direct->second});
    return r;
  }

  // No direct link: transit through the common neighbor with the lowest
  // combined latency (packets ride the provider backbone via that site).
  const auto leg = [&](const std::string& a,
                       const std::string& b) -> const LinkProfile* {
    const auto it = wan_links_.find({std::min(a, b), std::max(a, b)});
    return it == wan_links_.end() ? nullptr : &it->second;
  };
  const std::string* best_site = nullptr;
  double best_latency = 0.0;
  const LinkProfile* best_first = nullptr;
  const LinkProfile* best_second = nullptr;
  for (const auto& [name, transit] : sites_) {
    if (name == src.site || name == dst.site) continue;
    const LinkProfile* first = leg(src.site, name);
    const LinkProfile* second = leg(name, dst.site);
    if (!first || !second) continue;
    const double latency = first->latency_s + second->latency_s;
    if (!best_site || latency < best_latency) {
      best_site = &name;
      best_latency = latency;
      best_first = first;
      best_second = second;
    }
  }
  if (!best_site) {
    throw ConnectorError("Fabric: no route between " + src.site + " and " +
                         dst.site);
  }
  // Represent the transit point with any host of the transit site.
  const auto transit_hosts = hosts_in_site(*best_site);
  const std::string via =
      transit_hosts.empty() ? *best_site + "(transit)" : transit_hosts.front();
  r.hops.push_back(Hop{from, via, *best_first});
  r.hops.push_back(Hop{via, to, *best_second});
  return r;
}

double Fabric::transfer_time(const std::string& from, const std::string& to,
                             std::size_t bytes) const {
  return route(from, to).transfer_time(bytes);
}

bool Fabric::can_connect_direct(const std::string& from,
                                const std::string& to) const {
  const Host& src = host(from);
  const Host& dst = host(to);
  if (src.site == dst.site) return true;
  // Inbound to a NAT'd site requires traversal; outbound from NAT is fine.
  return !site(dst.site).behind_nat;
}

double Fabric::disk_write_time(const std::string& host_name,
                               std::size_t bytes) const {
  const Host& h = host(host_name);
  return h.file_latency_s + static_cast<double>(bytes) / h.disk_write_Bps;
}

double Fabric::disk_read_time(const std::string& host_name,
                              std::size_t bytes) const {
  const Host& h = host(host_name);
  return h.file_latency_s + static_cast<double>(bytes) / h.disk_read_Bps;
}

double Fabric::mem_copy_time(const std::string& host_name,
                             std::size_t bytes) const {
  return static_cast<double>(bytes) / host(host_name).mem_Bps;
}

double SshTunnel::transfer_time(const Fabric& fabric, const std::string& from,
                                const std::string& to,
                                std::size_t bytes) const {
  Route r = fabric.route(from, to);
  double total = 0.0;
  for (Hop& hop : r.hops) {
    // The tunnel pins the connection to TCP semantics regardless of the
    // underlying link and adds per-message crypto/framing cost.
    LinkProfile p = hop.profile;
    if (p.congestion == Congestion::kRdma || p.congestion == Congestion::kLan) {
      // Intra-site ssh still runs over TCP but the LAN has no meaningful ramp.
      p.per_msg_overhead_s += per_msg_overhead_s;
    } else {
      p.congestion = Congestion::kBbrWan;  // well-tuned TCP stack (BBR)
      p.per_msg_overhead_s += per_msg_overhead_s;
    }
    total += p.transfer_time(bytes);
  }
  return total;
}

}  // namespace ps::net
