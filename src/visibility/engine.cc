#include "visibility/engine.h"

#include "common/check.h"
#include "visibility/naive.h"
#include "visibility/paint.h"
#include "visibility/raycast.h"
#include "visibility/reference.h"
#include "visibility/warnock.h"

namespace visrt {

const char* algorithm_name(Algorithm a) {
  switch (a) {
  case Algorithm::Paint: return "paint";
  case Algorithm::Warnock: return "warnock";
  case Algorithm::RayCast: return "raycast";
  case Algorithm::NaivePaint: return "naive-paint";
  case Algorithm::NaiveWarnock: return "naive-warnock";
  case Algorithm::NaiveRayCast: return "naive-raycast";
  case Algorithm::Reference: return "reference";
  }
  return "?";
}

std::unique_ptr<CoherenceEngine> make_engine(Algorithm algorithm,
                                             const EngineConfig& config) {
  require(config.forest != nullptr, "engine config requires a region forest");
  switch (algorithm) {
  case Algorithm::Paint: return std::make_unique<PaintEngine>(config);
  case Algorithm::Warnock: return std::make_unique<WarnockEngine>(config);
  case Algorithm::RayCast: return std::make_unique<RayCastEngine>(config);
  case Algorithm::NaivePaint:
    return std::make_unique<NaivePaintEngine>(config);
  case Algorithm::NaiveWarnock:
    return std::make_unique<NaiveWarnockEngine>(config);
  case Algorithm::NaiveRayCast:
    return std::make_unique<NaiveRayCastEngine>(config);
  case Algorithm::Reference:
    return std::make_unique<ReferenceEngine>(config);
  }
  invariant_failure("unknown algorithm");
}

} // namespace visrt
