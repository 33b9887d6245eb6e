#include "distributed/simulator.hpp"

#include <algorithm>
#include <queue>

#include "prufer/updates.hpp"

namespace mrlc::dist {

SensorReplica::SensorReplica(wsn::VertexId id, const prufer::Code& code,
                             int node_count)
    : id_(id),
      node_count_(node_count),
      parents_(prufer::decode(code, node_count)),
      code_(code) {}

void SensorReplica::apply_changes(const UpdateRecord& record) {
  std::vector<wsn::VertexId> next = parents_;
  for (const auto& [child, parent] : record.changes) {
    MRLC_REQUIRE(child > 0 && child < node_count_, "record child out of range");
    MRLC_REQUIRE(parent >= -1 && parent < node_count_, "record parent out of range");
    MRLC_REQUIRE(parent != child, "record parents a node to itself");
    next[static_cast<std::size_t>(child)] = parent;
  }
  const bool full = std::none_of(next.begin() + 1, next.end(),
                                 [](wsn::VertexId p) { return p == -1; });
  if (full) {
    // `encode` validates the tree (in-range parents, no cycle).
    code_ = node_count_ >= 2 ? prufer::encode(next) : prufer::Code{};
  } else {
    prufer::validate_forest(next);
    code_.clear();  // partial trees have no Prüfer code
  }
  parents_ = std::move(next);
}

bool SensorReplica::apply(const UpdateRecord& record) {
  if (record.sequence <= last_applied_) return false;
  apply_changes(record);
  last_applied_ = record.sequence;
  observe_sequence(record.sequence);
  log_.emplace(record.sequence, record);
  return true;
}

SensorReplica::Integration SensorReplica::integrate(const UpdateRecord& record) {
  MRLC_REQUIRE(record.sequence > 0, "integrate needs a real update record");
  observe_sequence(record.sequence);
  if (record.sequence <= last_applied_ || buffered_.count(record.sequence) > 0) {
    return Integration::kDuplicate;
  }
  buffered_.emplace(record.sequence, record);
  Integration result = Integration::kBuffered;
  // Drain the buffer while it starts exactly one past the applied prefix.
  for (auto it = buffered_.find(last_applied_ + 1); it != buffered_.end();
       it = buffered_.find(last_applied_ + 1)) {
    apply_changes(it->second);
    last_applied_ = it->first;
    log_.emplace(it->first, std::move(it->second));
    buffered_.erase(it);
    result = Integration::kApplied;
  }
  return result;
}

std::vector<std::uint64_t> SensorReplica::missing_sequences() const {
  std::vector<std::uint64_t> missing;
  for (std::uint64_t seq = last_applied_ + 1; seq <= known_latest_; ++seq) {
    if (buffered_.count(seq) == 0) missing.push_back(seq);
  }
  return missing;
}

bool SensorReplica::has_record(std::uint64_t sequence) const {
  return log_.count(sequence) > 0 || buffered_.count(sequence) > 0;
}

const UpdateRecord& SensorReplica::record(std::uint64_t sequence) const {
  if (auto it = log_.find(sequence); it != log_.end()) return it->second;
  const auto it = buffered_.find(sequence);
  MRLC_REQUIRE(it != buffered_.end(), "replica does not hold that record");
  return it->second;
}

ProtocolSimulator::ProtocolSimulator(const wsn::Network& net,
                                     wsn::AggregationTree initial,
                                     double lifetime_bound, MaintainerOptions options,
                                     FloodOptions flood)
    : maintainer_(net, std::move(initial), lifetime_bound, options),
      flood_(flood),
      rng_(flood.seed),
      channels_(net, flood.channel, rng_) {
  replicas_.reserve(static_cast<std::size_t>(net.node_count()));
  for (wsn::VertexId v = 0; v < net.node_count(); ++v) {
    // The sink computes the initial code and broadcasts it once; we charge
    // that startup flood to the stats.  The bootstrap itself is assumed
    // reliable (replicas are constructed pre-seeded) even in lossy mode.
    replicas_.emplace_back(v, maintainer_.code(), net.node_count());
  }
  UpdateRecord bootstrap;
  bootstrap.sequence = 0;  // replicas already hold it; count the radio cost only
  bootstrap.initiator = 0;
  stats_.flood_transmissions += flood_reliable(bootstrap);
}

const SensorReplica& ProtocolSimulator::replica(wsn::VertexId v) const {
  MRLC_REQUIRE(v >= 0 && v < static_cast<int>(replicas_.size()), "node out of range");
  return replicas_[static_cast<std::size_t>(v)];
}

std::vector<std::vector<std::pair<wsn::VertexId, wsn::EdgeId>>>
ProtocolSimulator::member_adjacency() const {
  const wsn::AggregationTree& tree = maintainer_.tree();
  const int n = tree.node_count();
  std::vector<std::vector<std::pair<wsn::VertexId, wsn::EdgeId>>> adjacent(
      static_cast<std::size_t>(n));
  for (wsn::VertexId v = 0; v < n; ++v) {
    if (!tree.contains(v)) continue;  // off-tree subtrees keep stale pointers
    const wsn::VertexId p = tree.parent(v);
    if (p == -1) continue;
    const wsn::EdgeId id = tree.parent_edge(v);
    adjacent[static_cast<std::size_t>(v)].emplace_back(p, id);
    adjacent[static_cast<std::size_t>(p)].emplace_back(v, id);
  }
  return adjacent;
}

int ProtocolSimulator::flood(const wsn::Network& net, const UpdateRecord& record) {
  return flood_.lossy ? flood_lossy(net, record) : flood_reliable(record);
}

int ProtocolSimulator::flood_reliable(const UpdateRecord& record) {
  // Broadcast flood over the *current* tree: each transmission reaches all
  // tree neighbours; nodes forward once if they have anywhere to forward.
  const wsn::AggregationTree& tree = maintainer_.tree();
  const auto adjacent = member_adjacency();

  const wsn::VertexId initiator = record.initiator == -1 ? tree.root() : record.initiator;
  std::vector<bool> heard(adjacent.size(), false);
  std::queue<wsn::VertexId> to_transmit;
  int transmissions = 0;

  heard[static_cast<std::size_t>(initiator)] = true;
  to_transmit.push(initiator);
  while (!to_transmit.empty()) {
    const wsn::VertexId sender = to_transmit.front();
    to_transmit.pop();
    ++transmissions;  // one radio broadcast reaches all tree neighbours
    for (const auto& [neighbour, link] : adjacent[static_cast<std::size_t>(sender)]) {
      (void)link;
      if (heard[static_cast<std::size_t>(neighbour)]) continue;
      heard[static_cast<std::size_t>(neighbour)] = true;
      if (record.sequence > 0) {
        replicas_[static_cast<std::size_t>(neighbour)].apply(record);
      }
      // Forward only if the node has neighbours that have not heard yet
      // (a leaf's only neighbour is its sender).
      if (adjacent[static_cast<std::size_t>(neighbour)].size() > 1) {
        to_transmit.push(neighbour);
      }
    }
  }
  MRLC_ENSURE(static_cast<int>(std::count(heard.begin(), heard.end(), true)) ==
                  tree.member_count(),
              "reliable flood failed to reach every tree member");
  return transmissions;
}

int ProtocolSimulator::flood_lossy(const wsn::Network& net, const UpdateRecord& record) {
  // Same propagation pattern as flood_reliable, but each neighbour hears a
  // broadcast with probability link-PRR; a sender may re-broadcast up to
  // control_retx extra times while some tree neighbour is still missing the
  // record.  Nodes the flood never reaches are left stale (recovered later
  // by anti-entropy) and counted in flood_deliveries_missed.
  const wsn::AggregationTree& tree = maintainer_.tree();
  const auto adjacent = member_adjacency();
  channels_.sync(net);  // link qualities may have drifted since the last flood

  const wsn::VertexId initiator = record.initiator == -1 ? tree.root() : record.initiator;
  std::vector<bool> heard(adjacent.size(), false);
  std::queue<wsn::VertexId> to_transmit;
  int transmissions = 0;

  heard[static_cast<std::size_t>(initiator)] = true;
  to_transmit.push(initiator);
  while (!to_transmit.empty()) {
    const wsn::VertexId sender = to_transmit.front();
    to_transmit.pop();
    const auto& neighbours = adjacent[static_cast<std::size_t>(sender)];
    for (int attempt = 0; attempt <= flood_.control_retx; ++attempt) {
      const bool any_unheard =
          std::any_of(neighbours.begin(), neighbours.end(), [&](const auto& nb) {
            return !heard[static_cast<std::size_t>(nb.first)];
          });
      if (!any_unheard) break;
      ++transmissions;
      for (const auto& [neighbour, link] : neighbours) {
        if (heard[static_cast<std::size_t>(neighbour)]) continue;
        if (!channels_.transmit(link, rng_)) continue;
        heard[static_cast<std::size_t>(neighbour)] = true;
        if (record.sequence > 0) {
          replicas_[static_cast<std::size_t>(neighbour)].integrate(record);
        }
        if (adjacent[static_cast<std::size_t>(neighbour)].size() > 1) {
          to_transmit.push(neighbour);
        }
      }
    }
  }
  if (record.sequence > 0) {
    for (wsn::VertexId v = 0; v < tree.node_count(); ++v) {
      if (tree.contains(v) && !heard[static_cast<std::size_t>(v)]) {
        ++stats_.flood_deliveries_missed;
      }
    }
  }
  return transmissions;
}

int ProtocolSimulator::disseminate(const wsn::Network& net,
                                   const std::vector<wsn::VertexId>& before,
                                   const std::vector<wsn::VertexId>& after,
                                   wsn::VertexId initiator_hint) {
  UpdateRecord record;
  record.sequence = next_sequence_++;
  for (std::size_t v = 0; v < before.size(); ++v) {
    if (before[v] != after[v]) {
      record.changes.emplace_back(static_cast<wsn::VertexId>(v), after[v]);
    }
  }
  MRLC_ENSURE(!record.changes.empty(), "disseminate called without a change");

  // The flood source must be a live tree member: prefer the hint (e.g. the
  // node that detected a death), else the first changed node still on the
  // tree, else the sink.
  const wsn::AggregationTree& tree = maintainer_.tree();
  auto valid_initiator = [&](wsn::VertexId v) {
    return v >= 0 && v < tree.node_count() && tree.contains(v) &&
           !replicas_[static_cast<std::size_t>(v)].dead();
  };
  if (valid_initiator(initiator_hint)) {
    record.initiator = initiator_hint;
  } else {
    for (const auto& [child, parent] : record.changes) {
      (void)parent;
      if (valid_initiator(child)) {
        record.initiator = child;
        break;
      }
    }
    if (record.initiator == -1) record.initiator = tree.root();
  }

  // The initiator applies locally, then floods.
  SensorReplica& source = replicas_[static_cast<std::size_t>(record.initiator)];
  if (flood_.lossy) {
    source.integrate(record);
  } else {
    source.apply(record);
  }
  const int transmissions = flood(net, record);
  ++stats_.records_disseminated;
  stats_.flood_transmissions += transmissions;
  return transmissions;
}

bool ProtocolSimulator::on_link_degraded(const wsn::Network& net, wsn::EdgeId link) {
  const std::vector<wsn::VertexId> before = maintainer_.tree().parents();
  const bool changed = maintainer_.on_link_degraded(net, link);
  int transmissions = 0;
  if (changed) transmissions = disseminate(net, before, maintainer_.tree().parents());
  stats_.transmissions_per_event.push_back(transmissions);
  if (changed) resync(net);
  return changed;
}

bool ProtocolSimulator::on_link_improved(const wsn::Network& net, wsn::EdgeId link) {
  const std::vector<wsn::VertexId> before = maintainer_.tree().parents();
  const bool changed = maintainer_.on_link_improved(net, link);
  int transmissions = 0;
  if (changed) transmissions = disseminate(net, before, maintainer_.tree().parents());
  stats_.transmissions_per_event.push_back(transmissions);
  if (changed) resync(net);
  return changed;
}

RepairOutcome ProtocolSimulator::on_node_failed(wsn::Network& net, wsn::VertexId dead) {
  MRLC_REQUIRE(dead >= 0 && dead < static_cast<int>(replicas_.size()),
               "node out of range");
  net.fail_node(dead);  // idempotent; removes the dead node's links
  const std::vector<wsn::VertexId> before = maintainer_.tree().parents();
  // The dead node's former parent notices the silence and initiates.
  const wsn::VertexId hint = before[static_cast<std::size_t>(dead)];
  replicas_[static_cast<std::size_t>(dead)].mark_dead();
  const RepairOutcome outcome = maintainer_.on_node_failed(net, dead);
  int transmissions = 0;
  if (before != maintainer_.tree().parents()) {
    transmissions = disseminate(net, before, maintainer_.tree().parents(), hint);
  }
  stats_.transmissions_per_event.push_back(transmissions);
  resync(net);
  return outcome;
}

int ProtocolSimulator::retry_detached(const wsn::Network& net) {
  const std::vector<wsn::VertexId> before = maintainer_.tree().parents();
  const int rejoined = maintainer_.retry_detached(net);
  if (before != maintainer_.tree().parents()) {
    const int transmissions =
        disseminate(net, before, maintainer_.tree().parents());
    stats_.transmissions_per_event.push_back(transmissions);
    resync(net);
  }
  return rejoined;
}

int ProtocolSimulator::resync(const wsn::Network& net) {
  if (!flood_.lossy) return 0;
  const std::uint64_t latest = next_sequence_ - 1;
  if (latest == 0) return 0;
  const wsn::AggregationTree& tree = maintainer_.tree();
  const auto adjacent = member_adjacency();
  channels_.sync(net);

  auto live_member = [&](wsn::VertexId v) {
    return tree.contains(v) && !replicas_[static_cast<std::size_t>(v)].dead();
  };
  auto any_stale = [&]() {
    for (wsn::VertexId v = 0; v < tree.node_count(); ++v) {
      if (live_member(v) &&
          replicas_[static_cast<std::size_t>(v)].applied_sequence() < latest) {
        return true;
      }
    }
    return false;
  };

  int rounds = 0;
  while (any_stale()) {
    if (rounds == flood_.max_resync_rounds) {
      ++stats_.resync_exhausted;
      break;
    }
    ++rounds;
    ++stats_.resync_rounds;

    // Phase 1 — digest beacons: every member broadcasts its applied cursor;
    // each tree neighbour hears it with the link's PRR.  This is how a
    // replica that missed a flood entirely learns that it is behind.
    for (wsn::VertexId v = 0; v < tree.node_count(); ++v) {
      if (!live_member(v) || adjacent[static_cast<std::size_t>(v)].empty()) continue;
      ++stats_.digest_beacons;
      const std::uint64_t cursor =
          replicas_[static_cast<std::size_t>(v)].applied_sequence();
      for (const auto& [neighbour, link] : adjacent[static_cast<std::size_t>(v)]) {
        if (channels_.transmit(link, rng_)) {
          replicas_[static_cast<std::size_t>(neighbour)].observe_sequence(cursor);
        }
      }
    }

    // Phase 2 — pulls: a replica that knows of records it is missing asks
    // its best-informed tree neighbour for them (unicast request/response,
    // each retransmitted up to control_retx extra times).
    for (wsn::VertexId v = 0; v < tree.node_count(); ++v) {
      if (!live_member(v)) continue;
      SensorReplica& behind = replicas_[static_cast<std::size_t>(v)];
      const std::vector<std::uint64_t> missing = behind.missing_sequences();
      if (missing.empty()) continue;

      wsn::VertexId donor = -1;
      wsn::EdgeId donor_link = -1;
      std::uint64_t donor_cursor = behind.applied_sequence();
      for (const auto& [neighbour, link] : adjacent[static_cast<std::size_t>(v)]) {
        const std::uint64_t cursor =
            replicas_[static_cast<std::size_t>(neighbour)].applied_sequence();
        if (cursor > donor_cursor) {
          donor = neighbour;
          donor_link = link;
          donor_cursor = cursor;
        }
      }
      if (donor == -1) continue;  // nobody nearby is ahead yet

      bool delivered = false;
      for (int attempt = 0; attempt <= flood_.control_retx && !delivered; ++attempt) {
        ++stats_.resync_requests;
        delivered = channels_.transmit(donor_link, rng_);
      }
      if (!delivered) continue;

      const SensorReplica& source = replicas_[static_cast<std::size_t>(donor)];
      std::vector<const UpdateRecord*> batch;
      for (std::uint64_t seq : missing) {
        if (source.has_record(seq)) batch.push_back(&source.record(seq));
      }
      if (batch.empty()) continue;
      delivered = false;
      for (int attempt = 0; attempt <= flood_.control_retx && !delivered; ++attempt) {
        ++stats_.resync_responses;
        delivered = channels_.transmit(donor_link, rng_);
      }
      if (!delivered) continue;
      for (const UpdateRecord* rec : batch) behind.integrate(*rec);
    }
  }
  return rounds;
}

bool ProtocolSimulator::replicas_consistent() const {
  // Replicas of dead or partitioned nodes are unreachable by floods and go
  // stale by design; every live member must agree with the maintainer.
  const wsn::AggregationTree& tree = maintainer_.tree();
  for (wsn::VertexId v = 0; v < tree.node_count(); ++v) {
    if (!tree.contains(v)) continue;
    if (replicas_[static_cast<std::size_t>(v)].parents() != tree.parents()) {
      return false;
    }
  }
  return true;
}

}  // namespace mrlc::dist
