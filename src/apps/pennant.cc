#include "apps/pennant.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/check.h"
#include "realm/reduction_ops.h"

namespace visrt::apps {

namespace {
constexpr double kDtCourant = 0.9;
} // namespace

PennantApp::PennantApp(Runtime& rt, PennantConfig cfg)
    : rt_(rt), cfg_(cfg),
      nzx_(static_cast<coord_t>(cfg.pieces_x) * cfg.zones_per_piece_x),
      nzy_(static_cast<coord_t>(cfg.pieces_y) * cfg.zones_per_piece_y),
      npx_(nzx_ + 1), npy_(nzy_ + 1),
      zlin_(Rect<2>{{0, 0}, {nzy_ - 1, nzx_ - 1}}),
      plin_(Rect<2>{{0, 0}, {npy_ - 1, npx_ - 1}}) {
  require(cfg_.pieces_x >= 1 && cfg_.pieces_y >= 1,
          "pennant needs at least one piece");

  zones_ = rt_.create_region(zlin_.linearize(zlin_.base()), "zones");
  points_ = rt_.create_region(plin_.linearize(plin_.base()), "points");
  dtreg_ = rt_.create_region(IntervalSet(0, 0), "dt");

  // Zone rectangles; point ownership: point (py,px) belongs to the piece
  // whose zone rectangle begins at it (clamped at the high edges), so OWN
  // is disjoint and complete while each piece's working point rectangle
  // overhangs into up to three neighbours — those overhangs form GHOST.
  const coord_t zw = cfg_.zones_per_piece_x, zh = cfg_.zones_per_piece_y;
  std::vector<IntervalSet> zparts, own, ghost;
  for (std::uint32_t py = 0; py < cfg_.pieces_y; ++py) {
    for (std::uint32_t px = 0; px < cfg_.pieces_x; ++px) {
      coord_t zx0 = static_cast<coord_t>(px) * zw;
      coord_t zy0 = static_cast<coord_t>(py) * zh;
      zparts.push_back(zlin_.linearize(
          Rect<2>{{zy0, zx0}, {zy0 + zh - 1, zx0 + zw - 1}}));

      // Owned points: the zone rectangle's low corner block, extended to
      // the mesh edge for the last pieces.
      coord_t ox1 = px + 1 == cfg_.pieces_x ? npx_ - 1 : zx0 + zw - 1;
      coord_t oy1 = py + 1 == cfg_.pieces_y ? npy_ - 1 : zy0 + zh - 1;
      own.push_back(plin_.linearize(Rect<2>{{zy0, zx0}, {oy1, ox1}}));

      // Working rectangle of points this piece's zones touch.
      IntervalSet working = plin_.linearize(
          Rect<2>{{zy0, zx0}, {zy0 + zh, zx0 + zw}});
      ghost.push_back(working.subtract(own.back()));
    }
  }
  zone_parts_ = rt_.create_partition(zones_, std::move(zparts), "Zp");
  own_parts_ = rt_.create_partition(points_, std::move(own), "OWN");
  ghost_parts_ = rt_.create_partition(points_, std::move(ghost), "GHOST");

  zrho_ = rt_.add_field(zones_, "rho", [](coord_t z) {
    return 1.0 + static_cast<double>(z % 5) * 0.1;
  });
  ze_ = rt_.add_field(zones_, "e", [](coord_t z) {
    return 2.0 + static_cast<double>(z % 3) * 0.25;
  });
  zp_ = rt_.add_field(zones_, "p", 0.0);
  pf_ = rt_.add_field(points_, "f", 0.0);
  pu_ = rt_.add_field(points_, "u", 0.0);
  pm_ = rt_.add_field(points_, "m", [](coord_t p) {
    return 1.0 + static_cast<double>(p % 4) * 0.5;
  });
  fdt_ = rt_.add_field(dtreg_, "dt",
                       std::numeric_limits<double>::infinity());

  // Serial reference mirrors the initial state.  validate() needs value
  // tracking (Runtime::observe), so an untracked runtime gets none.
  if (!rt_.config().track_values) return;
  auto fill = [](std::vector<double>& v, coord_t n, auto gen) {
    v.resize(static_cast<std::size_t>(n));
    for (coord_t i = 0; i < n; ++i)
      v[static_cast<std::size_t>(i)] = gen(i);
  };
  fill(ref_rho_, nzx_ * nzy_,
       [](coord_t z) { return 1.0 + static_cast<double>(z % 5) * 0.1; });
  fill(ref_e_, nzx_ * nzy_,
       [](coord_t z) { return 2.0 + static_cast<double>(z % 3) * 0.25; });
  ref_p_.assign(static_cast<std::size_t>(nzx_ * nzy_), 0.0);
  ref_f_.assign(static_cast<std::size_t>(npx_ * npy_), 0.0);
  ref_u_.assign(static_cast<std::size_t>(npx_ * npy_), 0.0);
  fill(ref_m_, npx_ * npy_,
       [](coord_t p) { return 1.0 + static_cast<double>(p % 4) * 0.5; });
  ref_dt_state_ = std::numeric_limits<double>::infinity();
}

void PennantApp::launch_iteration() {
  if (cfg_.trace) rt_.begin_trace(0);
  const double gamma = cfg_.gamma;
  const double dt = cfg_.dt;
  const Linearizer<2> zlin = zlin_;
  const Linearizer<2> plin = plin_;

  // Phase 1: calc_pressure (zone-local).
  for (std::uint32_t pi = 0; pi < pieces(); ++pi) {
    RegionHandle z = rt_.subregion(zone_parts_, pi);
    TaskLaunch t;
    t.name = "calc_pressure";
    t.requirements = {RegionReq{z, zrho_, Privilege::read()},
                      RegionReq{z, ze_, Privilege::read()},
                      RegionReq{z, zp_, Privilege::read_write()}};
    t.mapped_node = piece_node(pi);
    t.work_items = zones_per_piece();
    t.fn = [gamma](TaskContext& ctx) {
      const RegionData<double>& rho = ctx.data(0);
      const RegionData<double>& e = ctx.data(1);
      ctx.data(2).for_each([&](coord_t zid, double& p) {
        p = (gamma - 1.0) * rho.at(zid) * e.at(zid);
      });
    };
    rt_.launch(std::move(t));
  }

  // Phase 2: sum_forces — zones push pressure to their four corner
  // points; corners owned by neighbours go through the aliased GHOST
  // subregion.
  for (std::uint32_t pi = 0; pi < pieces(); ++pi) {
    RegionHandle z = rt_.subregion(zone_parts_, pi);
    RegionHandle o = rt_.subregion(own_parts_, pi);
    RegionHandle g = rt_.subregion(ghost_parts_, pi);
    TaskLaunch t;
    t.name = "sum_forces";
    t.requirements = {RegionReq{z, zp_, Privilege::read()},
                      RegionReq{o, pf_, Privilege::reduce(kRedopSum)},
                      RegionReq{g, pf_, Privilege::reduce(kRedopSum)}};
    t.mapped_node = piece_node(pi);
    t.work_items = zones_per_piece();
    t.fn = [zlin, plin](TaskContext& ctx) {
      const RegionData<double>& p = ctx.data(0);
      RegionData<double>& own_f = ctx.data(1);
      RegionData<double>& ghost_f = ctx.data(2);
      auto deposit = [&](coord_t pid, double df) {
        if (own_f.domain().contains(pid)) own_f.at(pid) += df;
        else ghost_f.at(pid) += df;
      };
      p.for_each([&](coord_t zid, const double& zpv) {
        Point<2> zc = zlin.delinearize(zid);
        double df = 0.25 * zpv;
        for (coord_t dy = 0; dy <= 1; ++dy)
          for (coord_t dx = 0; dx <= 1; ++dx)
            deposit(plin.linearize(Point<2>{{zc[0] + dy, zc[1] + dx}}), df);
      });
    };
    rt_.launch(std::move(t));
  }

  // Phase 3: move_points — apply forces to owned points and contribute to
  // the global minimum timestep.
  for (std::uint32_t pi = 0; pi < pieces(); ++pi) {
    RegionHandle o = rt_.subregion(own_parts_, pi);
    TaskLaunch t;
    t.name = "move_points";
    t.requirements = {RegionReq{o, pm_, Privilege::read()},
                      RegionReq{o, pu_, Privilege::read_write()},
                      RegionReq{o, pf_, Privilege::read_write()},
                      RegionReq{dtreg_, fdt_, Privilege::reduce(kRedopMin)}};
    t.mapped_node = piece_node(pi);
    t.work_items = zones_per_piece();
    t.fn = [dt](TaskContext& ctx) {
      const RegionData<double>& m = ctx.data(0);
      RegionData<double>& u = ctx.data(1);
      RegionData<double>& f = ctx.data(2);
      RegionData<double>& dtc = ctx.data(3);
      double umax = 0.0;
      u.for_each([&](coord_t pid, double& uv) {
        uv += f.at(pid) / m.at(pid) * dt;
        umax = std::max(umax, std::abs(uv));
      });
      f.fill(0.0);
      double local_dt = kDtCourant / (umax + 1.0);
      dtc.at(0) = std::min(dtc.at(0), local_dt);
    };
    rt_.launch(std::move(t));
  }

  // Phase 4: update_zones — zones pull corner velocities, including
  // neighbours' through GHOST.
  for (std::uint32_t pi = 0; pi < pieces(); ++pi) {
    RegionHandle z = rt_.subregion(zone_parts_, pi);
    RegionHandle o = rt_.subregion(own_parts_, pi);
    RegionHandle g = rt_.subregion(ghost_parts_, pi);
    TaskLaunch t;
    t.name = "update_zones";
    t.requirements = {RegionReq{o, pu_, Privilege::read()},
                      RegionReq{g, pu_, Privilege::read()},
                      RegionReq{z, zrho_, Privilege::read_write()},
                      RegionReq{z, ze_, Privilege::read_write()}};
    t.mapped_node = piece_node(pi);
    t.work_items = zones_per_piece();
    t.fn = [zlin, plin, dt](TaskContext& ctx) {
      const RegionData<double>& own_u = ctx.data(0);
      const RegionData<double>& ghost_u = ctx.data(1);
      RegionData<double>& rho = ctx.data(2);
      RegionData<double>& e = ctx.data(3);
      auto vel = [&](coord_t pid) {
        return own_u.domain().contains(pid) ? own_u.at(pid)
                                            : ghost_u.at(pid);
      };
      rho.for_each([&](coord_t zid, double& r) {
        Point<2> zc = zlin.delinearize(zid);
        double div = 0.0;
        // Crude "divergence": right-edge minus left-edge velocities.
        div += vel(plin.linearize(Point<2>{{zc[0], zc[1] + 1}}));
        div += vel(plin.linearize(Point<2>{{zc[0] + 1, zc[1] + 1}}));
        div -= vel(plin.linearize(Point<2>{{zc[0], zc[1]}}));
        div -= vel(plin.linearize(Point<2>{{zc[0] + 1, zc[1]}}));
        r = r * (1.0 - 0.5 * dt * div);
        e.at(zid) = e.at(zid) * (1.0 - 0.25 * dt * div);
      });
    };
    rt_.launch(std::move(t));
  }

  // Host task: observe and reset the dt reduction (read, then read-write).
  {
    TaskLaunch t;
    t.name = "collect_dt";
    t.requirements = {RegionReq{dtreg_, fdt_, Privilege::read_write()}};
    t.mapped_node = 0;
    t.work_items = 1;
    double* sink = &last_dt_;
    t.fn = [sink](TaskContext& ctx) {
      *sink = ctx.data(0).at(0);
      ctx.data(0).at(0) = std::numeric_limits<double>::infinity();
    };
    rt_.launch(std::move(t));
  }
  if (cfg_.trace) rt_.end_trace();
  rt_.end_iteration();
}

void PennantApp::reference_step() {
  const double gamma = cfg_.gamma;
  const double dt = cfg_.dt;
  const coord_t zw = cfg_.zones_per_piece_x, zh = cfg_.zones_per_piece_y;

  auto zone_rect_of = [&](std::uint32_t pi, coord_t& zx0, coord_t& zy0) {
    std::uint32_t px = pi % cfg_.pieces_x, py = pi / cfg_.pieces_x;
    zx0 = static_cast<coord_t>(px) * zw;
    zy0 = static_cast<coord_t>(py) * zh;
  };
  auto zid_of = [&](coord_t zy, coord_t zx) {
    return static_cast<std::size_t>(zy * nzx_ + zx);
  };
  auto pid_of = [&](coord_t py, coord_t px) {
    return static_cast<std::size_t>(py * npx_ + px);
  };
  auto owned_by = [&](std::uint32_t pi, coord_t py, coord_t px) {
    std::uint32_t ppx = pi % cfg_.pieces_x, ppy = pi / cfg_.pieces_x;
    coord_t zx0 = static_cast<coord_t>(ppx) * zw;
    coord_t zy0 = static_cast<coord_t>(ppy) * zh;
    coord_t ox1 = ppx + 1 == cfg_.pieces_x ? npx_ - 1 : zx0 + zw - 1;
    coord_t oy1 = ppy + 1 == cfg_.pieces_y ? npy_ - 1 : zy0 + zh - 1;
    return px >= zx0 && px <= ox1 && py >= zy0 && py <= oy1;
  };

  // Phase 1.
  for (std::size_t z = 0; z < ref_p_.size(); ++z)
    ref_p_[z] = (gamma - 1.0) * ref_rho_[z] * ref_e_[z];

  // Phase 2: per-piece buffers folded own-then-ghost in piece order,
  // exactly replicating the runtime's reduction commit order.
  for (std::uint32_t pi = 0; pi < pieces(); ++pi) {
    coord_t zx0, zy0;
    zone_rect_of(pi, zx0, zy0);
    std::map<std::size_t, double> own_buf, ghost_buf;
    for (coord_t zy = zy0; zy < zy0 + zh; ++zy) {
      for (coord_t zx = zx0; zx < zx0 + zw; ++zx) {
        double df = 0.25 * ref_p_[zid_of(zy, zx)];
        for (coord_t dy = 0; dy <= 1; ++dy) {
          for (coord_t dx = 0; dx <= 1; ++dx) {
            coord_t py = zy + dy, px = zx + dx;
            (owned_by(pi, py, px) ? own_buf
                                  : ghost_buf)[pid_of(py, px)] += df;
          }
        }
      }
    }
    for (const auto& [pid, df] : own_buf) ref_f_[pid] += df;
    for (const auto& [pid, df] : ghost_buf) ref_f_[pid] += df;
  }

  // Phase 3: piece order, owned points in ascending id order.
  double global_dt = std::numeric_limits<double>::infinity();
  for (std::uint32_t pi = 0; pi < pieces(); ++pi) {
    double umax = 0.0;
    for (coord_t py = 0; py < npy_; ++py) {
      for (coord_t px = 0; px < npx_; ++px) {
        if (!owned_by(pi, py, px)) continue;
        std::size_t pid = pid_of(py, px);
        ref_u_[pid] += ref_f_[pid] / ref_m_[pid] * dt;
        umax = std::max(umax, std::abs(ref_u_[pid]));
        ref_f_[pid] = 0.0;
      }
    }
    global_dt = std::min(global_dt, kDtCourant / (umax + 1.0));
  }
  ref_dt_state_ = std::min(ref_dt_state_, global_dt);

  // Phase 4.
  std::vector<double> rho_next = ref_rho_, e_next = ref_e_;
  for (coord_t zy = 0; zy < nzy_; ++zy) {
    for (coord_t zx = 0; zx < nzx_; ++zx) {
      double div = 0.0;
      div += ref_u_[pid_of(zy, zx + 1)];
      div += ref_u_[pid_of(zy + 1, zx + 1)];
      div -= ref_u_[pid_of(zy, zx)];
      div -= ref_u_[pid_of(zy + 1, zx)];
      std::size_t z = zid_of(zy, zx);
      rho_next[z] = ref_rho_[z] * (1.0 - 0.5 * dt * div);
      e_next[z] = ref_e_[z] * (1.0 - 0.25 * dt * div);
    }
  }
  ref_rho_ = std::move(rho_next);
  ref_e_ = std::move(e_next);

  // Host task.
  ref_last_dt_ = ref_dt_state_;
  ref_dt_state_ = std::numeric_limits<double>::infinity();
}

void PennantApp::run() {
  for (int it = 0; it < cfg_.iterations; ++it) {
    launch_iteration();
    if (rt_.config().track_values) reference_step();
  }
}

bool PennantApp::validate(double tolerance) const {
  auto close = [tolerance](double a, double b) {
    if (a == b) return true;
    double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= tolerance * scale;
  };
  bool ok = true;
  auto check = [&](RegionHandle region, FieldID field,
                   const std::vector<double>& ref) {
    RegionData<double> data = rt_.observe(region, field);
    data.for_each([&](coord_t i, const double& v) {
      if (!close(v, ref[static_cast<std::size_t>(i)])) ok = false;
    });
  };
  check(zones_, zrho_, ref_rho_);
  check(zones_, ze_, ref_e_);
  check(zones_, zp_, ref_p_);
  check(points_, pf_, ref_f_);
  check(points_, pu_, ref_u_);
  if (!close(last_dt_, ref_last_dt_)) ok = false;
  return ok;
}

} // namespace visrt::apps
