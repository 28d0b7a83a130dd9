// visrt/apps/stencil.h
//
// The Stencil benchmark of Section 8: a 9-point star stencil (radius 2,
// no corner cells — two cells in each axis direction from the center) on a
// structured 2-D grid, intermixed with a data-parallel update, after the
// Parallel Research Kernels stencil [26].
//
// The grid is decomposed into a 2-D grid of tiles, one per piece.  Each
// piece has two views:
//   - primary  P[i]: the tile itself (disjoint, complete);
//   - halo     H[i]: the tile grown by `radius` cells in every direction
//                    (aliased: overlaps up to eight neighbouring tiles).
// Each iteration launches, per piece,
//   stencil: read H[i].in, read-write P[i].out   (out += star(in))
//   add:     read-write P[i].in                  (in += 1)
// so the stencil of iteration k+1 reads cells written by the neighbours'
// add tasks of iteration k through a different partition — exactly the
// cross-partition coherence pattern the paper measures.  Because tiles are
// 2-D, their linearized domains are fragmented (one interval per row),
// stressing the set algebra the way the paper's 2-D decomposition does.
#pragma once

#include <vector>

#include "geom/rect.h"
#include "runtime/runtime.h"

namespace visrt::apps {

struct StencilConfig {
  std::uint32_t pieces_x = 2; ///< tile grid (pieces = pieces_x * pieces_y)
  std::uint32_t pieces_y = 2;
  coord_t tile_rows = 16; ///< rows per tile (weak-scaling unit)
  coord_t tile_cols = 16; ///< columns per tile
  int iterations = 4;
  int radius = 2;
  /// Bracket every iteration in a runtime trace (tracing extension).
  bool trace = false;
};

class StencilApp {
public:
  StencilApp(Runtime& rt, StencilConfig cfg);

  /// Launch all iterations (each ends with Runtime::end_iteration()).
  void run();

  std::uint32_t pieces() const { return cfg_.pieces_x * cfg_.pieces_y; }

  /// Grid points updated per piece per iteration (throughput unit).
  coord_t points_per_piece() const {
    return cfg_.tile_rows * cfg_.tile_cols;
  }

  /// Compare the runtime's final field contents against a serial
  /// execution of the same program.  Requires value tracking.
  bool validate() const;

private:
  void launch_iteration();
  /// Serial reference step over ref_in_/ref_out_.
  void reference_step();

  double& ref_at(std::vector<double>& grid, coord_t r, coord_t c) const {
    return grid[static_cast<std::size_t>(r * cols_ + c)];
  }

  Runtime& rt_;
  StencilConfig cfg_;
  coord_t rows_, cols_;
  Linearizer<2> lin_;
  RegionHandle grid_;
  PartitionHandle primary_, halo_;
  FieldID fin_, fout_;

  // Serial reference state (kept only when the runtime tracks values).
  mutable std::vector<double> ref_in_, ref_out_;
};

} // namespace visrt::apps
