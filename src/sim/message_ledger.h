// visrt/sim/message_ledger.h
//
// Per-simulated-node message ledger: one record per analysis / data
// message the runtime injects into the work graph — source, destination,
// byte count, kind, the launch on whose behalf it was sent and (for
// analysis traffic) the equivalence set that triggered it.  This is the
// substrate for plotting root-node fan-in directly: group records by
// destination and the painter's node-0 hot spot falls out.
//
// Records are appended in the runtime's per-requirement emission order, so
// the ledger's contents are a pure function of the program.
//
// Part of the provenance layer: gated at runtime by
// `RuntimeConfig::provenance`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace visrt::sim {

enum class MessageKind : std::uint8_t {
  AnalysisRequest,  ///< analysis visiting metadata owned by a remote node
  AnalysisResponse, ///< remote owner shipping metadata back
  Copy,             ///< instance data copy
  Reduction,        ///< reduction flush
};

const char* message_kind_name(MessageKind kind);

/// One simulated message.
struct MessageRecord {
  LaunchID launch = kInvalidLaunch; ///< launch being analyzed / mapped
  NodeID src = 0;
  NodeID dst = 0;
  std::uint64_t bytes = 0;
  MessageKind kind = MessageKind::AnalysisRequest;
  EqSetID eqset = kNoEqSetID; ///< triggering eq-set, if attributable
};

/// Per-node send/receive totals.
struct NodeTraffic {
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t recv_bytes = 0;
};

class MessageLedger {
public:
  void enable(std::size_t num_nodes);
  bool enabled() const { return enabled_; }

  void record(const MessageRecord& record);

  const std::vector<MessageRecord>& records() const { return records_; }
  /// One entry per simulated node (index == NodeID).
  std::vector<NodeTraffic> per_node() const;
  /// Message count per kind, indexed by MessageKind value.
  std::vector<std::uint64_t> by_kind() const;

  /// Deterministic JSON: {"total": N, "by_kind": {...},
  /// "per_node": [{sent, recv, sent_bytes, recv_bytes}...]}.
  std::string json() const;

private:
  bool enabled_ = false;
  std::size_t num_nodes_ = 0;
  std::vector<MessageRecord> records_;
};

} // namespace visrt::sim
