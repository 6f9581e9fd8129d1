#include "serve/sla.hpp"

#include "serve/graph.hpp"

namespace magicube::serve {

simt::KernelRun price_request(const Request& req, OperandCache& plans) {
  // A fused graph prices as one merged run over all its stages; the
  // wrapper's operand slots are intentionally null.
  if (req.graph) return price_graph_request(*req.graph, plans);
  MAGICUBE_CHECK_MSG(req.pattern && req.lhs_values && req.rhs_values,
                     "serve request is missing pattern or operand values");
  const std::uint64_t pattern_fp = plans.pattern_identity(req.pattern);
  if (req.op == OpKind::spmm) {
    core::SpmmConfig cfg;
    cfg.precision = req.precision;
    cfg.variant = req.variant;
    cfg.bsn = req.bsn;
    const CachedOperand hit =
        plans.find(spmm_plan_key(pattern_fp, req.rhs_values->cols(), cfg));
    return hit ? hit.spmm_plan->run
               : core::spmm_estimate(*req.pattern, req.rhs_values->cols(),
                                     cfg);
  }
  core::SddmmConfig cfg;
  cfg.precision = req.precision;
  cfg.prefetch = req.sddmm_prefetch;
  const CachedOperand hit =
      plans.find(sddmm_plan_key(pattern_fp, req.lhs_values->cols(), cfg));
  return hit ? hit.sddmm_plan->run
             : core::sddmm_estimate(*req.pattern, req.lhs_values->cols(),
                                    cfg);
}

WarmupReport warmup_plans(OperandCache& plans, const WarmupManifest& manifest,
                          OperandCache::PinScope* pins) {
  WarmupReport report;
  for (const WarmupEntry& e : manifest.entries) {
    MAGICUBE_CHECK_MSG(e.pattern != nullptr,
                       "warmup manifest entry is missing its pattern");
    MAGICUBE_CHECK_MSG(e.cols > 0,
                       "warmup manifest entry needs a nonzero cols "
                       "(SpMM RHS width N / SDDMM reduction depth K)");
    const std::uint64_t fp = plans.pattern_identity(e.pattern);
    bool hit = false;
    OperandKey key;
    if (e.op == OpKind::spmm) {
      core::SpmmConfig cfg;
      cfg.precision = e.precision;
      cfg.variant = e.variant;
      cfg.bsn = e.bsn;
      plans.get_or_build_spmm_plan(e.pattern, e.cols, cfg, fp, &hit);
      key = spmm_plan_key(fp, e.cols, cfg);
    } else {
      core::SddmmConfig cfg;
      cfg.precision = e.precision;
      cfg.prefetch = e.sddmm_prefetch;
      plans.get_or_build_sddmm_plan(e.pattern, e.cols, cfg, fp, &hit);
      key = sddmm_plan_key(fp, e.cols, cfg);
    }
    if (hit) {
      report.plans_resident += 1;
    } else {
      report.plans_built += 1;
    }
    if (e.pin && pins != nullptr) {
      // A pin can race a concurrent eviction in the build→pin window;
      // rebuild and retry (same discipline as the sharding layer's
      // sub-plan pins).
      bool pinned = pins->pin(key);
      for (int att = 0; !pinned && att < 3; ++att) {
        if (e.op == OpKind::spmm) {
          core::SpmmConfig cfg;
          cfg.precision = e.precision;
          cfg.variant = e.variant;
          cfg.bsn = e.bsn;
          plans.get_or_build_spmm_plan(e.pattern, e.cols, cfg, fp);
        } else {
          core::SddmmConfig cfg;
          cfg.precision = e.precision;
          cfg.prefetch = e.sddmm_prefetch;
          plans.get_or_build_sddmm_plan(e.pattern, e.cols, cfg, fp);
        }
        pinned = pins->pin(key);
      }
      if (pinned) report.pinned += 1;
    }
  }
  return report;
}

}  // namespace magicube::serve
