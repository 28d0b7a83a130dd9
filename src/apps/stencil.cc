#include "apps/stencil.h"

#include "common/check.h"

namespace visrt::apps {

namespace {
/// Star stencil weights at distance 1 and 2 (same in both axes).
constexpr double kW1 = 0.25;
constexpr double kW2 = 0.125;
} // namespace

StencilApp::StencilApp(Runtime& rt, StencilConfig cfg)
    : rt_(rt), cfg_(cfg),
      rows_(cfg.tile_rows * static_cast<coord_t>(cfg.pieces_y)),
      cols_(cfg.tile_cols * static_cast<coord_t>(cfg.pieces_x)),
      lin_(Rect<2>{{0, 0}, {rows_ - 1, cols_ - 1}}) {
  require(cfg_.pieces_x >= 1 && cfg_.pieces_y >= 1,
          "stencil needs at least one piece");
  require(cfg_.tile_rows > 2 * cfg_.radius &&
              cfg_.tile_cols > 2 * cfg_.radius,
          "stencil tiles must be larger than the halo radius");

  grid_ = rt_.create_region(lin_.linearize(lin_.base()), "grid");

  std::vector<IntervalSet> primary, halo;
  for (std::uint32_t py = 0; py < cfg_.pieces_y; ++py) {
    for (std::uint32_t px = 0; px < cfg_.pieces_x; ++px) {
      coord_t r0 = static_cast<coord_t>(py) * cfg_.tile_rows;
      coord_t c0 = static_cast<coord_t>(px) * cfg_.tile_cols;
      coord_t r1 = r0 + cfg_.tile_rows - 1;
      coord_t c1 = c0 + cfg_.tile_cols - 1;
      primary.push_back(lin_.linearize(Rect<2>{{r0, c0}, {r1, c1}}));
      halo.push_back(lin_.linearize(
          Rect<2>{{r0 - cfg_.radius, c0 - cfg_.radius},
                  {r1 + cfg_.radius, c1 + cfg_.radius}}));
    }
  }
  primary_ = rt_.create_partition(grid_, std::move(primary), "P");
  halo_ = rt_.create_partition(grid_, std::move(halo), "H");

  auto initial = [this](coord_t p) {
    Point<2> pt = lin_.delinearize(p);
    return static_cast<double>(pt[0] + pt[1]);
  };
  fin_ = rt_.add_field(grid_, "in", initial);
  fout_ = rt_.add_field(grid_, "out", 0.0);

  // validate() needs value tracking (Runtime::observe), so an untracked
  // runtime gets no serial reference.
  if (!rt_.config().track_values) return;
  ref_in_.resize(static_cast<std::size_t>(rows_ * cols_));
  ref_out_.assign(static_cast<std::size_t>(rows_ * cols_), 0.0);
  for (coord_t r = 0; r < rows_; ++r)
    for (coord_t c = 0; c < cols_; ++c)
      ref_at(ref_in_, r, c) = static_cast<double>(r + c);
}

void StencilApp::launch_iteration() {
  if (cfg_.trace) rt_.begin_trace(0);
  const int rad = cfg_.radius;
  for (std::uint32_t i = 0; i < pieces(); ++i) {
    RegionHandle p = rt_.subregion(primary_, i);
    RegionHandle h = rt_.subregion(halo_, i);
    NodeID node = static_cast<NodeID>(i % rt_.num_nodes());

    TaskLaunch stencil;
    stencil.name = "stencil";
    stencil.requirements = {RegionReq{h, fin_, Privilege::read()},
                            RegionReq{p, fout_, Privilege::read_write()}};
    stencil.mapped_node = node;
    stencil.work_items = points_per_piece();
    // Capture what the kernel needs by value; the body runs only when the
    // runtime tracks values.
    Linearizer<2> lin = lin_;
    coord_t rows = rows_, cols = cols_;
    stencil.fn = [lin, rows, cols, rad](TaskContext& ctx) {
      const RegionData<double>& in = ctx.data(0);
      RegionData<double>& out = ctx.data(1);
      out.for_each([&](coord_t pt, double& v) {
        Point<2> xy = lin.delinearize(pt);
        coord_t r = xy[0], c = xy[1];
        // Interior cells only: the full star must fit in the grid.
        if (r < rad || r >= rows - rad || c < rad || c >= cols - rad)
          return;
        double acc = v;
        for (int d = 1; d <= rad; ++d) {
          double w = d == 1 ? kW1 : kW2;
          acc += w * in.at(lin.linearize(Point<2>{{r - d, c}}));
          acc += w * in.at(lin.linearize(Point<2>{{r + d, c}}));
          acc += w * in.at(lin.linearize(Point<2>{{r, c - d}}));
          acc += w * in.at(lin.linearize(Point<2>{{r, c + d}}));
        }
        v = acc;
      });
    };
    rt_.launch(std::move(stencil));
  }

  for (std::uint32_t i = 0; i < pieces(); ++i) {
    RegionHandle p = rt_.subregion(primary_, i);
    TaskLaunch add;
    add.name = "add";
    add.requirements = {RegionReq{p, fin_, Privilege::read_write()}};
    add.mapped_node = static_cast<NodeID>(i % rt_.num_nodes());
    add.work_items = points_per_piece();
    add.fn = [](TaskContext& ctx) {
      ctx.data(0).for_each([](coord_t, double& v) { v += 1.0; });
    };
    rt_.launch(std::move(add));
  }
  if (cfg_.trace) rt_.end_trace();
  rt_.end_iteration();
}

void StencilApp::reference_step() {
  const int rad = cfg_.radius;
  std::vector<double> next = ref_out_;
  for (coord_t r = rad; r < rows_ - rad; ++r) {
    for (coord_t c = rad; c < cols_ - rad; ++c) {
      double acc = ref_at(next, r, c);
      for (int d = 1; d <= rad; ++d) {
        double w = d == 1 ? kW1 : kW2;
        acc += w * ref_at(ref_in_, r - d, c);
        acc += w * ref_at(ref_in_, r + d, c);
        acc += w * ref_at(ref_in_, r, c - d);
        acc += w * ref_at(ref_in_, r, c + d);
      }
      ref_at(next, r, c) = acc;
    }
  }
  ref_out_ = std::move(next);
  for (double& v : ref_in_) v += 1.0;
}

void StencilApp::run() {
  for (int it = 0; it < cfg_.iterations; ++it) {
    launch_iteration();
    if (rt_.config().track_values) reference_step();
  }
}

bool StencilApp::validate() const {
  RegionData<double> out = rt_.observe(grid_, fout_);
  RegionData<double> in = rt_.observe(grid_, fin_);
  bool ok = true;
  out.for_each([&](coord_t p, const double& v) {
    Point<2> xy = lin_.delinearize(p);
    if (v != ref_at(ref_out_, xy[0], xy[1])) ok = false;
  });
  in.for_each([&](coord_t p, const double& v) {
    Point<2> xy = lin_.delinearize(p);
    if (v != ref_at(ref_in_, xy[0], xy[1])) ok = false;
  });
  return ok;
}

} // namespace visrt::apps
