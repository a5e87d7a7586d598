// Federated network fabric.
//
// Models the multi-site testbed of the paper: sites (Theta, Polaris,
// Midway2, Frontera, ...), hosts within sites (login nodes, compute nodes,
// edge devices), intra-site interconnects, inter-site WAN links, and NAT
// placement. Substrates query the fabric for the virtual-time cost of moving
// bytes between hosts and for reachability (whether a direct connection is
// possible or a relay/hole-punch is required).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "net/link.hpp"

namespace ps::net {

struct Site {
  std::string name;
  /// Sites behind NAT cannot accept unsolicited inbound connections
  /// (Section 2: "NAT and firewalls often prohibit outside access").
  bool behind_nat = false;
  /// Intra-site interconnect between hosts of this site.
  LinkProfile interconnect;
};

struct Host {
  std::string name;
  std::string site;
  /// Shared/parallel file system characteristics (FileConnector costs).
  double disk_write_Bps = 1e9;
  double disk_read_Bps = 2e9;
  double file_latency_s = 1e-3;  // metadata / open() cost per file op
  /// In-memory copy bandwidth (serialization, local staging).
  double mem_Bps = 8e9;
};

/// One hop of a resolved route.
struct Hop {
  std::string from;
  std::string to;
  LinkProfile profile;
};

struct Route {
  std::vector<Hop> hops;
  /// True when the two ends sit behind distinct NATs, so a direct
  /// connection requires relay-assisted hole punching.
  bool requires_nat_traversal = false;

  /// Total one-way time for `bytes` over the whole route (store-and-forward
  /// per hop, which upper-bounds cut-through and matches mediated channels).
  double transfer_time(std::size_t bytes) const;

  /// Propagation-only round-trip latency of the route (no payload).
  double rtt() const;
};

class Fabric {
 public:
  Fabric();

  // -- topology construction ------------------------------------------------

  Site& add_site(std::string name, LinkProfile interconnect,
                 bool behind_nat = false);
  Host& add_host(std::string name, const std::string& site);
  Host& add_host(std::string name, const std::string& site, Host traits);

  /// Declares a bidirectional WAN link between two sites.
  void connect_sites(const std::string& a, const std::string& b,
                     LinkProfile profile);

  // -- queries ---------------------------------------------------------------

  const Site& site(const std::string& name) const;
  const Host& host(const std::string& name) const;
  bool has_host(const std::string& name) const;
  std::vector<std::string> hosts_in_site(const std::string& site) const;

  /// Resolves the route between two hosts: loopback, intra-site,
  /// inter-site WAN, or — when no direct link exists — a two-hop transit
  /// route through a common neighbor site (lowest-latency transit wins).
  /// Throws ConnectorError when no route exists at all.
  Route route(const std::string& from, const std::string& to) const;

  /// One-way virtual-time cost of moving `bytes` from host to host.
  double transfer_time(const std::string& from, const std::string& to,
                       std::size_t bytes) const;

  /// True when `from` can open a connection directly to `to` (i.e. `to`'s
  /// site is not behind a NAT, or both are in the same site).
  bool can_connect_direct(const std::string& from,
                          const std::string& to) const;

  /// Disk write/read virtual-time costs on a host's file system.
  double disk_write_time(const std::string& host, std::size_t bytes) const;
  double disk_read_time(const std::string& host, std::size_t bytes) const;
  /// In-memory copy cost (serialization staging) on a host.
  double mem_copy_time(const std::string& host, std::size_t bytes) const;

 private:
  const LinkProfile& wan_link(const std::string& site_a,
                              const std::string& site_b) const;

  std::map<std::string, Site> sites_;
  std::map<std::string, Host> hosts_;
  std::map<std::pair<std::string, std::string>, LinkProfile> wan_links_;
  LinkProfile loopback_;
};

/// SSH tunnel cost wrapper (the Figure 9 baseline): traffic to a remote
/// Redis through a manually created tunnel. Adds per-message encryption
/// overhead and a TCP WAN profile on the tunneled hop.
struct SshTunnel {
  /// Extra fixed cost per message for ssh framing + encryption.
  double per_msg_overhead_s = 300e-6;

  /// One-way cost of sending `bytes` from `from` to `to` through the tunnel.
  double transfer_time(const Fabric& fabric, const std::string& from,
                       const std::string& to, std::size_t bytes) const;
};

}  // namespace ps::net
