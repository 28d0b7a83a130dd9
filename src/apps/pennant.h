// visrt/apps/pennant.h
//
// The Pennant benchmark of Section 8: a simplified 2-D Lagrangian
// hydrodynamics step on an unstructured mesh of quad zones and points,
// after the PENNANT mini-app [12].  The physics is reduced to its
// structural skeleton; what matters for the coherence analyses — and what
// this port preserves faithfully — is the region structure:
//
//   zones Z    fields: rho (density), e (energy), p (pressure)
//              partition: Zp (disjoint complete, one rectangle of zones
//              per piece in a 2-D piece grid)
//   points PT  fields: f (accumulated force), u (velocity), m (mass)
//              partitions: OWN (disjoint complete: each point owned by the
//              piece whose zone rectangle starts at it) and GHOST
//              (aliased: a corner point shared by up to four pieces
//              appears in up to three ghost subregions)
//   dt    DT   field: dt — a one-element region all pieces reduce-min
//              into, closing each step (a second, distinct reduction
//              operator, as in the original code's dt computation)
//
// Per piece and iteration:
//   calc_pressure: read Z.rho, Z.e              -> rw Z.p
//   sum_forces:    read Z.p                     -> reduce+ OWN.f, GHOST.f
//   move_points:   read OWN.m                   -> rw OWN.u, rw OWN.f
//                  (u += f/m*dt; f = 0)         -> reduce_min DT.dt
//   update_zones:  read OWN.u, GHOST.u          -> rw Z.rho, Z.e
// plus one host task per iteration reading and resetting DT.
#pragma once

#include <vector>

#include "geom/rect.h"
#include "runtime/runtime.h"

namespace visrt::apps {

struct PennantConfig {
  std::uint32_t pieces_x = 2; ///< piece grid (pieces = pieces_x * pieces_y)
  std::uint32_t pieces_y = 2;
  coord_t zones_per_piece_x = 8; ///< zone rectangle per piece
  coord_t zones_per_piece_y = 8;
  int iterations = 4;
  /// Bracket every iteration in a runtime trace (tracing extension).
  bool trace = false;
  double gamma = 1.4;
  double dt = 0.005;
};

class PennantApp {
public:
  PennantApp(Runtime& rt, PennantConfig cfg);

  void run();

  std::uint32_t pieces() const { return cfg_.pieces_x * cfg_.pieces_y; }
  /// Zones simulated per piece per iteration (throughput unit).
  coord_t zones_per_piece() const {
    return cfg_.zones_per_piece_x * cfg_.zones_per_piece_y;
  }

  /// Compare against a serial execution.  Requires value tracking.
  /// See CircuitApp::validate for the tolerance semantics.
  bool validate(double tolerance = 0.0) const;

  /// The dt value the host observed after the final iteration.
  double last_dt() const { return last_dt_; }

private:
  void launch_iteration();
  void reference_step();

  NodeID piece_node(std::uint32_t pi) const {
    return static_cast<NodeID>(pi % rt_.num_nodes());
  }

  Runtime& rt_;
  PennantConfig cfg_;
  coord_t nzx_, nzy_; // total zones per axis
  coord_t npx_, npy_; // total points per axis
  Linearizer<2> zlin_, plin_;

  RegionHandle zones_, points_, dtreg_;
  PartitionHandle zone_parts_, own_parts_, ghost_parts_;
  FieldID zrho_, ze_, zp_, pf_, pu_, pm_, fdt_;

  // Serial reference state (kept only when the runtime tracks values).
  std::vector<double> ref_rho_, ref_e_, ref_p_;
  std::vector<double> ref_f_, ref_u_, ref_m_;
  double ref_dt_state_ = 0.0;
  double last_dt_ = 0.0;
  double ref_last_dt_ = 0.0;
};

} // namespace visrt::apps
