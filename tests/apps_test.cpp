// Integration tests: each benchmark application, on every optimized
// algorithm, with and without DCR, validates bit-for-bit (or within the
// documented painter reduction-commutation tolerance) against its serial
// reference — the end-to-end proof that the coherence machinery delivers
// apparently-sequential semantics to real workloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "apps/circuit.h"
#include "apps/pennant.h"
#include "apps/stencil.h"

namespace visrt {
namespace {

struct AppParam {
  Algorithm algorithm;
  bool dcr;
  // gtest names each instance after the raw bytes of its parameter. Spell
  // the tail padding out as zeroed bytes so those names are the same in
  // every run instead of carrying whatever the allocator left there.
  std::uint8_t reserved[3] = {};
};
static_assert(std::has_unique_object_representations_v<AppParam>,
              "AppParam must have no padding bytes");

RuntimeConfig app_config(const AppParam& p, std::uint32_t nodes) {
  RuntimeConfig cfg;
  cfg.algorithm = p.algorithm;
  cfg.dcr = p.dcr;
  cfg.track_values = true;
  cfg.machine.num_nodes = nodes;
  return cfg;
}

/// The painter may commute same-operator reduction folds (see DESIGN.md);
/// everything else must match bitwise.
double tolerance_for(Algorithm a) {
  return (a == Algorithm::Paint) ? 1e-9 : 0.0;
}

class AppValidation : public ::testing::TestWithParam<AppParam> {};

TEST_P(AppValidation, Stencil) {
  Runtime rt(app_config(GetParam(), 4));
  apps::StencilConfig cfg;
  cfg.pieces_x = 2;
  cfg.pieces_y = 2;
  cfg.tile_rows = 8;
  cfg.tile_cols = 12;
  cfg.iterations = 3;
  apps::StencilApp app(rt, cfg);
  app.run();
  EXPECT_TRUE(app.validate()) << algorithm_name(GetParam().algorithm);
  RunStats stats = rt.finish();
  EXPECT_EQ(stats.iterations, 3u);
  // 3 iterations x (stencil + add) x 4 pieces, plus the two observation
  // launches made by validate().
  EXPECT_EQ(stats.launches, 3u * 2u * 4u + 2u);
}

TEST_P(AppValidation, Circuit) {
  Runtime rt(app_config(GetParam(), 4));
  apps::CircuitConfig cfg;
  cfg.pieces = 4;
  cfg.nodes_per_piece = 16;
  cfg.wires_per_piece = 24;
  cfg.iterations = 3;
  apps::CircuitApp app(rt, cfg);
  app.run();
  EXPECT_TRUE(app.validate(tolerance_for(GetParam().algorithm)))
      << algorithm_name(GetParam().algorithm);
}

TEST_P(AppValidation, Pennant) {
  Runtime rt(app_config(GetParam(), 4));
  apps::PennantConfig cfg;
  cfg.pieces_x = 2;
  cfg.pieces_y = 2;
  cfg.zones_per_piece_x = 5;
  cfg.zones_per_piece_y = 5;
  cfg.iterations = 3;
  apps::PennantApp app(rt, cfg);
  app.run();
  EXPECT_TRUE(app.validate(tolerance_for(GetParam().algorithm)))
      << algorithm_name(GetParam().algorithm);
  EXPECT_GT(app.last_dt(), 0.0);
}

std::string app_param_name(const ::testing::TestParamInfo<AppParam>& info) {
  std::string name = algorithm_name(info.param.algorithm);
  for (char& c : name)
    if (c == '-') c = '_';
  return name + (info.param.dcr ? "_dcr" : "_nodcr");
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AppValidation,
    ::testing::Values(AppParam{Algorithm::Paint, false},
                      AppParam{Algorithm::Warnock, false},
                      AppParam{Algorithm::Warnock, true},
                      AppParam{Algorithm::RayCast, false},
                      AppParam{Algorithm::RayCast, true},
                      AppParam{Algorithm::NaivePaint, false},
                      AppParam{Algorithm::NaiveWarnock, false},
                      AppParam{Algorithm::NaiveRayCast, false},
                      AppParam{Algorithm::Reference, false}),
    app_param_name);

TEST(AppScaling, StencilSinglePiece) {
  // Degenerate single-piece configs must still work.
  RuntimeConfig cfg;
  cfg.machine.num_nodes = 1;
  Runtime rt(cfg);
  apps::StencilConfig scfg;
  scfg.pieces_x = 1;
  scfg.pieces_y = 1;
  scfg.tile_rows = 12;
  scfg.tile_cols = 16;
  scfg.iterations = 2;
  apps::StencilApp app(rt, scfg);
  app.run();
  EXPECT_TRUE(app.validate());
}

TEST(AppScaling, CircuitSinglePiece) {
  RuntimeConfig cfg;
  cfg.machine.num_nodes = 1;
  Runtime rt(cfg);
  apps::CircuitConfig ccfg;
  ccfg.pieces = 1;
  ccfg.nodes_per_piece = 12;
  ccfg.wires_per_piece = 20;
  ccfg.iterations = 2;
  apps::CircuitApp app(rt, ccfg);
  app.run();
  EXPECT_TRUE(app.validate());
}

TEST(AppScaling, PennantSinglePiece) {
  RuntimeConfig cfg;
  cfg.machine.num_nodes = 1;
  Runtime rt(cfg);
  apps::PennantConfig pcfg;
  pcfg.pieces_x = 1;
  pcfg.pieces_y = 1;
  pcfg.zones_per_piece_x = 6;
  pcfg.zones_per_piece_y = 6;
  pcfg.iterations = 2;
  apps::PennantApp app(rt, pcfg);
  app.run();
  EXPECT_TRUE(app.validate());
}

TEST(AppScaling, MorePiecesThanNodes) {
  // Pieces wrap around nodes (8 pieces on 2 nodes).
  RuntimeConfig cfg;
  cfg.machine.num_nodes = 2;
  Runtime rt(cfg);
  apps::CircuitConfig ccfg;
  ccfg.pieces = 8;
  ccfg.nodes_per_piece = 8;
  ccfg.wires_per_piece = 12;
  ccfg.iterations = 2;
  apps::CircuitApp app(rt, ccfg);
  app.run();
  EXPECT_TRUE(app.validate());
}

TEST(AppScaling, UntrackedRunsButCannotValidate) {
  // Without value tracking the apps keep no serial reference: run() still
  // drives the analysis, and validate() is refused by Runtime::observe.
  RuntimeConfig cfg;
  cfg.track_values = false;
  cfg.machine.num_nodes = 2;
  {
    Runtime rt(cfg);
    apps::StencilConfig scfg;
    scfg.iterations = 2;
    apps::StencilApp app(rt, scfg);
    app.run();
    EXPECT_THROW((void)app.validate(), ApiError);
  }
  {
    Runtime rt(cfg);
    apps::CircuitConfig ccfg;
    ccfg.iterations = 2;
    apps::CircuitApp app(rt, ccfg);
    app.run();
    EXPECT_THROW((void)app.validate(), ApiError);
  }
  {
    Runtime rt(cfg);
    apps::PennantConfig pcfg;
    pcfg.iterations = 2;
    apps::PennantApp app(rt, pcfg);
    app.run();
    EXPECT_THROW((void)app.validate(), ApiError);
  }
}

} // namespace
} // namespace visrt
