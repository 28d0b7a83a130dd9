// visrt/apps/circuit.h
//
// The Circuit benchmark of Section 8: an irregular graph of circuit nodes
// connected by wires, partitioned into pieces.  Wires within a piece touch
// only that piece's nodes; cross-piece wires reach into neighbouring
// pieces, inducing the aliased ghost partition that the paper's Figure 1
// skeleton is derived from.
//
// Regions and partitions:
//   nodes N   fields: voltage, charge      partitions: P (disjoint,
//             complete, by piece), G (aliased ghosts: nodes of other
//             pieces touched by this piece's wires)
//   wires W   field: current               partition: Wp (disjoint,
//             complete, by piece)
//
// Each iteration launches, per piece,
//   calc_currents:     read P[i].voltage, read G[i].voltage,
//                      read-write Wp[i].current
//   distribute_charge: read Wp[i].current, reduce+ P[i].charge,
//                      reduce+ G[i].charge
//   update_voltage:    read-write P[i].voltage, read-write P[i].charge
// The reductions through the aliased ghost partition followed by
// read-writes through the primary partition are the content-based
// coherence pattern the paper's example centres on.
#pragma once

#include <vector>

#include "common/rng.h"
#include "runtime/runtime.h"

namespace visrt::apps {

struct CircuitConfig {
  std::uint32_t pieces = 4;
  coord_t nodes_per_piece = 32;
  coord_t wires_per_piece = 48;
  /// Fraction of wires that cross into a neighbouring piece.
  double cross_fraction = 0.2;
  int iterations = 4;
  /// Bracket every iteration in a runtime trace (tracing extension).
  bool trace = false;
  std::uint64_t seed = 2023;
  double dt = 0.01;
  double resistance = 5.0;
  double capacitance = 2.0;
};

class CircuitApp {
public:
  CircuitApp(Runtime& rt, CircuitConfig cfg);

  void run();

  /// Wires simulated per piece per iteration (throughput unit).
  coord_t wires_per_piece() const { return cfg_.wires_per_piece; }

  /// Compare against a serial execution.  Requires value tracking.
  /// `tolerance` is a relative bound: 0 demands bitwise equality (exact
  /// for every engine except the optimized painter, which may fold
  /// same-operator reductions in a commuted order; see DESIGN.md).
  bool validate(double tolerance = 0.0) const;

private:
  struct Wire {
    coord_t src;
    coord_t dst;
  };

  void launch_iteration();
  void reference_step();

  Runtime& rt_;
  CircuitConfig cfg_;
  coord_t total_nodes_, total_wires_;

  RegionHandle nodes_, wires_;
  PartitionHandle node_primary_, node_ghost_, wire_pieces_;
  FieldID fvolt_, fcharge_, fcurrent_;

  std::vector<Wire> wire_list_;                 // indexed by wire id
  std::vector<std::vector<coord_t>> piece_wires_; // wire ids per piece

  // Serial reference state (kept only when the runtime tracks values).
  std::vector<double> ref_volt_, ref_charge_, ref_current_;
};

} // namespace visrt::apps
