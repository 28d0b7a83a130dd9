#include "visibility/reference.h"

#include "common/check.h"
#include "obs/recorder.h"

namespace visrt {

void ReferenceEngine::initialize_field(RegionHandle root, FieldID field,
                                       RegionData<double> initial,
                                       NodeID home) {
  FieldState fs;
  fs.root = root;
  fs.home = home;
  if (config_.track_values) {
    require(initial.domain() == config_.forest->domain(root),
            "initial data must cover the root region");
    fs.master = std::move(initial);
  }
  fields_.emplace(field, std::move(fs));
}

MaterializeResult ReferenceEngine::materialize(const Requirement& req,
                                               const AnalysisContext& ctx) {
  auto it = fields_.find(req.field);
  require(it != fields_.end(), "materialize on unregistered field");
  FieldState& fs = it->second;
  const IntervalSet& dom = config_.forest->domain(req.region);

  MaterializeResult out;
  AnalysisCounters c;
  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "reference/history_walk", ctx.task, ctx.analysis_node,
                     &c);
    for (const OpRecord& op : fs.ops) {
      ++c.history_entries;
      if (interferes(op.priv, req.privilege) && op.dom.overlaps(dom))
        add_dependence(out.dependences, op.task);
    }
  }
  if (config_.track_values) {
    if (req.privilege.is_reduce()) {
      out.data = RegionData<double>::filled(
          dom, reduction_op(req.privilege.redop).identity);
    } else {
      out.data = fs.master.restricted(dom);
    }
  }
  out.steps.push_back(AnalysisStep{fs.home, c, 0});
  return out;
}

std::vector<AnalysisStep> ReferenceEngine::commit(
    const Requirement& req, const RegionData<double>& result,
    const AnalysisContext& ctx) {
  auto it = fields_.find(req.field);
  require(it != fields_.end(), "commit on unregistered field");
  FieldState& fs = it->second;
  const IntervalSet& dom = config_.forest->domain(req.region);

  if (config_.track_values) {
    switch (req.privilege.kind) {
    case PrivilegeKind::ReadWrite:
      fs.master.overwrite_from(result);
      break;
    case PrivilegeKind::Reduce:
      fs.master.fold_from(reduction_op(req.privilege.redop).fold, result);
      break;
    case PrivilegeKind::Read:
      break;
    }
  }
  fs.ops.push_back(OpRecord{ctx.task, req.privilege, dom});
  return {AnalysisStep{fs.home, AnalysisCounters{}, 0}};
}

EngineStats ReferenceEngine::stats() const {
  EngineStats s;
  for (const auto& [field, fs] : fields_) s.history_entries += fs.ops.size();
  return s;
}

} // namespace visrt
