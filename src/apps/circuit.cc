#include "apps/circuit.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "realm/reduction_ops.h"
#include "region/dependent_partitioning.h"

namespace visrt::apps {

namespace {
/// Voltage of node `n` from whichever buffer holds it.
double node_voltage(const RegionData<double>& own,
                    const RegionData<double>& ghost, coord_t n) {
  return own.domain().contains(n) ? own.at(n) : ghost.at(n);
}
} // namespace

CircuitApp::CircuitApp(Runtime& rt, CircuitConfig cfg)
    : rt_(rt), cfg_(cfg),
      total_nodes_(static_cast<coord_t>(cfg.pieces) * cfg.nodes_per_piece),
      total_wires_(static_cast<coord_t>(cfg.pieces) * cfg.wires_per_piece) {
  require(cfg_.pieces >= 1 && cfg_.nodes_per_piece >= 2,
          "circuit needs at least two nodes per piece");

  // --- Generate the graph -------------------------------------------------
  Rng rng(cfg_.seed);
  piece_wires_.resize(cfg_.pieces);
  for (std::uint32_t i = 0; i < cfg_.pieces; ++i) {
    coord_t base = static_cast<coord_t>(i) * cfg_.nodes_per_piece;
    for (coord_t w = 0; w < cfg_.wires_per_piece; ++w) {
      Wire wire;
      wire.src = base + rng.range(0, cfg_.nodes_per_piece - 1);
      if (cfg_.pieces > 1 && rng.chance(cfg_.cross_fraction)) {
        // Cross wire into a neighbouring piece (ring topology).
        std::uint32_t nb = rng.chance(0.5)
                               ? (i + 1) % cfg_.pieces
                               : (i + cfg_.pieces - 1) % cfg_.pieces;
        coord_t nb_base = static_cast<coord_t>(nb) * cfg_.nodes_per_piece;
        wire.dst = nb_base + rng.range(0, cfg_.nodes_per_piece - 1);
      } else {
        wire.dst = base + rng.range(0, cfg_.nodes_per_piece - 1);
        if (wire.dst == wire.src)
          wire.dst = base + (wire.dst - base + 1) % cfg_.nodes_per_piece;
      }
      piece_wires_[i].push_back(static_cast<coord_t>(wire_list_.size()));
      wire_list_.push_back(wire);
    }
  }

  // Ghost partition via dependent partitioning [25], as the real circuit
  // computes it: the image of each piece's wires through their endpoint
  // pointers, minus the piece's own nodes.
  std::vector<IntervalSet> wire_parts_sets;
  for (std::uint32_t i = 0; i < cfg_.pieces; ++i) {
    coord_t wb = static_cast<coord_t>(i) * cfg_.wires_per_piece;
    wire_parts_sets.push_back(
        IntervalSet(wb, wb + cfg_.wires_per_piece - 1));
  }
  PointerFn endpoints = [this](coord_t w, std::vector<coord_t>& out) {
    const Wire& wire = wire_list_[static_cast<std::size_t>(w)];
    out.push_back(wire.src);
    out.push_back(wire.dst);
  };
  std::vector<IntervalSet> ghost_sets = image(wire_parts_sets, endpoints);
  for (std::uint32_t i = 0; i < cfg_.pieces; ++i) {
    coord_t base = static_cast<coord_t>(i) * cfg_.nodes_per_piece;
    ghost_sets[i] = ghost_sets[i].subtract(
        IntervalSet(base, base + cfg_.nodes_per_piece - 1));
    if (ghost_sets[i].empty() && cfg_.pieces > 1) {
      // Keep the ghost region non-empty so every piece exercises the
      // aliased partition: point at a neighbour's first node.
      std::uint32_t nb = (i + 1) % cfg_.pieces;
      ghost_sets[i] = IntervalSet::from_points(
          {static_cast<coord_t>(nb) * cfg_.nodes_per_piece});
    }
  }

  // --- Regions, partitions, fields ----------------------------------------
  nodes_ = rt_.create_region(IntervalSet(0, total_nodes_ - 1), "nodes");
  wires_ = rt_.create_region(IntervalSet(0, total_wires_ - 1), "wires");

  std::vector<IntervalSet> primary, wire_parts;
  for (std::uint32_t i = 0; i < cfg_.pieces; ++i) {
    coord_t nb = static_cast<coord_t>(i) * cfg_.nodes_per_piece;
    primary.push_back(IntervalSet(nb, nb + cfg_.nodes_per_piece - 1));
    coord_t wb = static_cast<coord_t>(i) * cfg_.wires_per_piece;
    wire_parts.push_back(IntervalSet(wb, wb + cfg_.wires_per_piece - 1));
  }
  node_primary_ = rt_.create_partition(nodes_, std::move(primary), "P");
  node_ghost_ = rt_.create_partition(nodes_, std::move(ghost_sets), "G");
  wire_pieces_ = rt_.create_partition(wires_, std::move(wire_parts), "Wp");

  fvolt_ = rt_.add_field(nodes_, "voltage", [](coord_t n) {
    return static_cast<double>(n % 7) - 3.0;
  });
  fcharge_ = rt_.add_field(nodes_, "charge", 0.0);
  fcurrent_ = rt_.add_field(wires_, "current", 0.0);

  // --- Serial reference ----------------------------------------------------
  // validate() needs value tracking (Runtime::observe), so an untracked
  // runtime gets no serial reference.
  if (!rt_.config().track_values) return;
  ref_volt_.resize(static_cast<std::size_t>(total_nodes_));
  for (coord_t n = 0; n < total_nodes_; ++n)
    ref_volt_[static_cast<std::size_t>(n)] =
        static_cast<double>(n % 7) - 3.0;
  ref_charge_.assign(static_cast<std::size_t>(total_nodes_), 0.0);
  ref_current_.assign(static_cast<std::size_t>(total_wires_), 0.0);
}

void CircuitApp::launch_iteration() {
  if (cfg_.trace) rt_.begin_trace(0);
  const double inv_r = 1.0 / cfg_.resistance;
  const double dt = cfg_.dt;
  const double inv_c = 1.0 / cfg_.capacitance;

  // Phase 1: calc_currents.
  for (std::uint32_t i = 0; i < cfg_.pieces; ++i) {
    RegionHandle p = rt_.subregion(node_primary_, i);
    RegionHandle g = rt_.subregion(node_ghost_, i);
    RegionHandle w = rt_.subregion(wire_pieces_, i);
    NodeID node = static_cast<NodeID>(i % rt_.num_nodes());

    TaskLaunch t;
    t.name = "calc_currents";
    t.requirements = {RegionReq{p, fvolt_, Privilege::read()},
                      RegionReq{g, fvolt_, Privilege::read()},
                      RegionReq{w, fcurrent_, Privilege::read_write()}};
    t.mapped_node = node;
    t.work_items = cfg_.wires_per_piece;
    const std::vector<Wire>* wires = &wire_list_;
    const std::vector<coord_t>* mine = &piece_wires_[i];
    t.fn = [wires, mine, inv_r](TaskContext& ctx) {
      const RegionData<double>& own = ctx.data(0);
      const RegionData<double>& ghost = ctx.data(1);
      RegionData<double>& current = ctx.data(2);
      for (coord_t wid : *mine) {
        const Wire& wire = (*wires)[static_cast<std::size_t>(wid)];
        double vs = node_voltage(own, ghost, wire.src);
        double vd = node_voltage(own, ghost, wire.dst);
        current.at(wid) = (vs - vd) * inv_r;
      }
    };
    rt_.launch(std::move(t));
  }

  // Phase 2: distribute_charge (reductions through primary and ghost).
  for (std::uint32_t i = 0; i < cfg_.pieces; ++i) {
    RegionHandle p = rt_.subregion(node_primary_, i);
    RegionHandle g = rt_.subregion(node_ghost_, i);
    RegionHandle w = rt_.subregion(wire_pieces_, i);

    TaskLaunch t;
    t.name = "distribute_charge";
    t.requirements = {
        RegionReq{w, fcurrent_, Privilege::read()},
        RegionReq{p, fcharge_, Privilege::reduce(kRedopSum)},
        RegionReq{g, fcharge_, Privilege::reduce(kRedopSum)}};
    t.mapped_node = static_cast<NodeID>(i % rt_.num_nodes());
    t.work_items = cfg_.wires_per_piece;
    const std::vector<Wire>* wires = &wire_list_;
    const std::vector<coord_t>* mine = &piece_wires_[i];
    t.fn = [wires, mine, dt](TaskContext& ctx) {
      const RegionData<double>& current = ctx.data(0);
      RegionData<double>& own_q = ctx.data(1);
      RegionData<double>& ghost_q = ctx.data(2);
      auto add = [&](coord_t n, double dq) {
        if (own_q.domain().contains(n)) own_q.at(n) += dq;
        else ghost_q.at(n) += dq;
      };
      for (coord_t wid : *mine) {
        const Wire& wire = (*wires)[static_cast<std::size_t>(wid)];
        double i_dt = current.at(wid) * dt;
        add(wire.src, -i_dt);
        add(wire.dst, i_dt);
      }
    };
    rt_.launch(std::move(t));
  }

  // Phase 3: update_voltage.
  for (std::uint32_t i = 0; i < cfg_.pieces; ++i) {
    RegionHandle p = rt_.subregion(node_primary_, i);
    TaskLaunch t;
    t.name = "update_voltage";
    t.requirements = {RegionReq{p, fvolt_, Privilege::read_write()},
                      RegionReq{p, fcharge_, Privilege::read_write()}};
    t.mapped_node = static_cast<NodeID>(i % rt_.num_nodes());
    t.work_items = cfg_.nodes_per_piece;
    t.fn = [inv_c](TaskContext& ctx) {
      RegionData<double>& volt = ctx.data(0);
      RegionData<double>& charge = ctx.data(1);
      volt.for_each([&](coord_t n, double& v) {
        v += charge.at(n) * inv_c;
      });
      charge.fill(0.0);
    };
    rt_.launch(std::move(t));
  }
  if (cfg_.trace) rt_.end_trace();
  rt_.end_iteration();
}

void CircuitApp::reference_step() {
  const double inv_r = 1.0 / cfg_.resistance;
  const double inv_c = 1.0 / cfg_.capacitance;

  // Phase 1: currents read the pre-phase voltages directly.
  for (std::uint32_t i = 0; i < cfg_.pieces; ++i) {
    for (coord_t wid : piece_wires_[i]) {
      const Wire& w = wire_list_[static_cast<std::size_t>(wid)];
      ref_current_[static_cast<std::size_t>(wid)] =
          (ref_volt_[static_cast<std::size_t>(w.src)] -
           ref_volt_[static_cast<std::size_t>(w.dst)]) *
          inv_r;
    }
  }

  // Phase 2: replicate the runtime's reduction buffering exactly — each
  // piece accumulates into private buffers which are folded into the
  // master copy in commit order (own buffer, then ghost buffer).
  for (std::uint32_t i = 0; i < cfg_.pieces; ++i) {
    std::unordered_map<coord_t, double> own, ghost;
    coord_t base = static_cast<coord_t>(i) * cfg_.nodes_per_piece;
    auto in_piece = [&](coord_t n) {
      return n >= base && n < base + cfg_.nodes_per_piece;
    };
    for (coord_t wid : piece_wires_[i]) {
      const Wire& w = wire_list_[static_cast<std::size_t>(wid)];
      double i_dt = ref_current_[static_cast<std::size_t>(wid)] * cfg_.dt;
      (in_piece(w.src) ? own : ghost)[w.src] -= i_dt;
      (in_piece(w.dst) ? own : ghost)[w.dst] += i_dt;
    }
    // Fold buffers in ascending node order (RegionData stores points in
    // ascending order, and fold_from walks them that way).
    auto fold = [&](std::unordered_map<coord_t, double>& buf) {
      std::vector<coord_t> keys;
      keys.reserve(buf.size());
      for (const auto& [n, dq] : buf) keys.push_back(n);
      std::sort(keys.begin(), keys.end());
      for (coord_t n : keys)
        ref_charge_[static_cast<std::size_t>(n)] += buf[n];
    };
    fold(own);
    fold(ghost);
  }

  // Phase 3.
  for (coord_t n = 0; n < total_nodes_; ++n) {
    ref_volt_[static_cast<std::size_t>(n)] +=
        ref_charge_[static_cast<std::size_t>(n)] * inv_c;
    ref_charge_[static_cast<std::size_t>(n)] = 0.0;
  }
}

void CircuitApp::run() {
  for (int it = 0; it < cfg_.iterations; ++it) {
    launch_iteration();
    if (rt_.config().track_values) reference_step();
  }
}

bool CircuitApp::validate(double tolerance) const {
  auto close = [tolerance](double a, double b) {
    if (a == b) return true;
    double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= tolerance * scale;
  };
  bool ok = true;
  RegionData<double> volt = rt_.observe(nodes_, fvolt_);
  volt.for_each([&](coord_t n, const double& v) {
    if (!close(v, ref_volt_[static_cast<std::size_t>(n)])) ok = false;
  });
  RegionData<double> charge = rt_.observe(nodes_, fcharge_);
  charge.for_each([&](coord_t n, const double& v) {
    if (!close(v, ref_charge_[static_cast<std::size_t>(n)])) ok = false;
  });
  RegionData<double> current = rt_.observe(wires_, fcurrent_);
  current.for_each([&](coord_t w, const double& v) {
    if (!close(v, ref_current_[static_cast<std::size_t>(w)])) ok = false;
  });
  return ok;
}

} // namespace visrt::apps
