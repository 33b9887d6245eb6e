#include "checks.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/metrics.hpp"

namespace perfbench {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t pair_key(int u, int v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

}  // namespace

std::string check_tree(const mrlc::wsn::Network& net,
                       const std::vector<int>& parent, double lifetime_bound,
                       double reported_cost) {
  const int n = net.node_count();
  if (static_cast<int>(parent.size()) != n) {
    return "tree has " + std::to_string(parent.size()) + " nodes, network " +
           std::to_string(n);
  }
  const int sink = net.sink();
  if (parent[static_cast<std::size_t>(sink)] != -1) return "sink has a parent";

  // Cheapest alive link per vertex pair.
  std::unordered_map<std::uint64_t, double> link_prr;
  const mrlc::graph::Graph& g = net.topology();
  for (int e = 0; e < g.edge_count(); ++e) {
    if (!g.is_alive(e)) continue;
    const auto& edge = g.edge(e);
    const std::uint64_t key = pair_key(edge.u, edge.v);
    const auto it = link_prr.find(key);
    if (it == link_prr.end() || net.link_prr(e) > it->second) {
      link_prr[key] = net.link_prr(e);
    }
  }

  double cost = 0.0;
  std::vector<int> children(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    if (v == sink) continue;
    const int p = parent[static_cast<std::size_t>(v)];
    if (p < 0 || p >= n || p == v) {
      return "node " + std::to_string(v) + " has invalid parent " +
             std::to_string(p);
    }
    const auto it = link_prr.find(pair_key(v, p));
    if (it == link_prr.end()) {
      return "node " + std::to_string(v) + " hangs off " + std::to_string(p) +
             " over no link";
    }
    cost += -std::log(it->second);
    ++children[static_cast<std::size_t>(p)];
  }

  // Every node must reach the sink: 0 = unvisited, 1 = on the current
  // walk, 2 = known to reach the sink.
  std::vector<char> state(static_cast<std::size_t>(n), 0);
  state[static_cast<std::size_t>(sink)] = 2;
  std::vector<int> walk;
  for (int v = 0; v < n; ++v) {
    int u = v;
    while (state[static_cast<std::size_t>(u)] == 0) {
      state[static_cast<std::size_t>(u)] = 1;
      walk.push_back(u);
      u = parent[static_cast<std::size_t>(u)];
    }
    if (state[static_cast<std::size_t>(u)] == 1) {
      return "cycle through node " + std::to_string(u);
    }
    for (const int w : walk) state[static_cast<std::size_t>(w)] = 2;
    walk.clear();
  }

  const mrlc::wsn::EnergyModel& energy = net.energy_model();
  for (int v = 0; v < n; ++v) {
    const double lifetime =
        net.initial_energy(v) /
        (energy.tx_joules +
         energy.rx_joules * children[static_cast<std::size_t>(v)]);
    if (lifetime < lifetime_bound * (1.0 - kCostTolerance)) {
      return "node " + std::to_string(v) + " lifetime " + fmt(lifetime) +
             " below bound " + fmt(lifetime_bound);
    }
  }

  if (!(std::abs(cost - reported_cost) <=
        kCostTolerance * std::max(1.0, std::abs(cost)))) {
    return "reported cost " + fmt(reported_cost) + " but tree costs " +
           fmt(cost);
  }
  return "";
}

std::string check_golden_cost(double cost, double golden) {
  if (std::abs(cost - golden) <= kCostTolerance) return "";
  return "cost " + fmt(cost) + " differs from golden " + fmt(golden);
}

std::vector<int> parents_from_tree_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "mrlc-tree v1") return {};
  std::string word;
  int nodes = 0;
  if (!std::getline(in, line)) return {};
  std::istringstream head(line);
  if (!(head >> word >> nodes) || word != "nodes" || nodes < 1) return {};
  std::vector<int> parent(static_cast<std::size_t>(nodes), -1);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    int v = 0;
    int p = 0;
    if (!(ls >> word >> v >> p) || word != "parent" || v < 0 || v >= nodes) {
      return {};
    }
    parent[static_cast<std::size_t>(v)] = p;
  }
  return parent;
}

std::string dataplane_fields_text(const mrlc::dist::DataPlaneResult& r) {
  std::ostringstream out;
  out << "rounds " << r.rounds << "\ndelivery_ratio " << fmt(r.delivery_ratio)
      << "\nround_success_ratio " << fmt(r.round_success_ratio)
      << "\navg_data_tx_per_round " << fmt(r.avg_data_tx_per_round)
      << "\navg_ack_tx_per_round " << fmt(r.avg_ack_tx_per_round)
      << "\navg_slots_per_round " << fmt(r.avg_slots_per_round)
      << "\nduplicates_suppressed " << r.duplicates_suppressed
      << "\npackets_dropped " << r.packets_dropped
      << "\njoules_per_reading " << fmt(r.joules_per_reading)
      << "\nmeasured_lifetime_rounds " << fmt(r.measured_lifetime_rounds)
      << "\ndegraded_events " << r.degraded_events
      << "\nimproved_events " << r.improved_events
      << "\nrepairs_applied " << r.repairs_applied
      << "\ndetections " << r.detections
      << "\nmean_detection_lag_rounds " << fmt(r.mean_detection_lag_rounds)
      << "\nfalse_positive_events " << r.false_positive_events
      << "\nmissed_events " << r.missed_events
      << "\nestimate_mae " << fmt(r.estimate_mae)
      << "\nfinal_reliability " << fmt(r.final_reliability)
      << "\nfinal_lifetime " << fmt(r.final_lifetime)
      << "\nbound_met " << r.bound_met << "\n";
  return out.str();
}

std::string dataplane_counters_text() {
  static const char* const kCounters[] = {
      "arq.ack_losses",          "arq.ack_tx",
      "arq.data_tx",             "arq.duplicates_suppressed",
      "arq.packets_dropped",     "arq.retransmissions",
      "arq.rounds",              "arq.transactions",
      "dataplane.degraded_events", "dataplane.detections",
      "dataplane.events_processed", "dataplane.events_scheduled",
      "dataplane.false_positives", "dataplane.improved_events",
      "dataplane.repairs_applied", "dataplane.rounds",
  };
  std::ostringstream out;
  for (const char* name : kCounters) {
    out << name << ' ' << mrlc::metrics::counter(name).value() << '\n';
  }
  return out.str();
}

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string check_digest(const std::string& what, const std::string& actual,
                         const std::string& expected) {
  if (actual == expected) return "";
  return what + " digest " + actual + " differs from expected " + expected;
}

GoldenTable load_golden(const std::string& path) {
  GoldenTable table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    std::string value;
    if (!(ls >> key)) continue;
    std::vector<std::string>& values = table[key];
    while (ls >> value) values.push_back(value);
  }
  return table;
}

}  // namespace perfbench
