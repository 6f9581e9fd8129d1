#include "serve/execute.hpp"

#include "common/check.hpp"
#include "serve/graph.hpp"
#include "simt/cost_model.hpp"

namespace magicube::serve {

Response serve_request(const Request& req, OperandCache& cache) {
  return serve_request(req, cache, cache, simt::a100());
}

Response serve_request(const Request& req, OperandCache& operands,
                       OperandCache& plans, const simt::DeviceSpec& device) {
  // A fused attention graph executes whole against an engine-owned arena;
  // the wrapper's operand slots are intentionally null.
  if (req.graph) return serve_graph_request(*req.graph, operands, plans,
                                            device);
  MAGICUBE_CHECK_MSG(req.pattern && req.lhs_values && req.rhs_values,
                     "serve request is missing pattern or operand values");
  Response resp;
  resp.op = req.op;
  if (req.op == OpKind::spmm) {
    core::SpmmConfig cfg;
    cfg.precision = req.precision;
    cfg.variant = req.variant;
    cfg.bsn = req.bsn;
    const auto lhs = operands.get_or_prepare_spmm_lhs(
        req.pattern, *req.lhs_values, req.precision,
        core::needs_shuffle(cfg), req.lhs_id, &resp.lhs_cache_hit);
    const auto rhs = operands.get_or_prepare_dense(
        OperandKind::spmm_rhs, *req.rhs_values, req.precision, req.rhs_id,
        &resp.rhs_cache_hit);
    // Plans are keyed by the pattern (structure), never the weight version:
    // distinct weights over one pattern replay one plan.
    const auto plan = plans.get_or_build_spmm_plan(
        req.pattern, lhs, req.rhs_values->cols(), cfg, /*pattern_content=*/0,
        &resp.plan_cache_hit);
    resp.spmm = core::spmm(lhs, rhs, cfg, plan);
    resp.modeled_seconds = simt::estimate_seconds(device, resp.spmm->run);
  } else {
    core::SddmmConfig cfg;
    cfg.precision = req.precision;
    cfg.prefetch = req.sddmm_prefetch;
    const auto a = operands.get_or_prepare_dense(
        OperandKind::sddmm_lhs, *req.lhs_values, req.precision, req.lhs_id,
        &resp.lhs_cache_hit);
    const auto b = operands.get_or_prepare_dense(
        OperandKind::sddmm_rhs, *req.rhs_values, req.precision, req.rhs_id,
        &resp.rhs_cache_hit);
    const auto plan = plans.get_or_build_sddmm_plan(
        req.pattern, req.lhs_values->cols(), cfg, /*pattern_content=*/0,
        &resp.plan_cache_hit);
    resp.sddmm = core::sddmm(a, b, *req.pattern, cfg, plan);
    resp.modeled_seconds = simt::estimate_seconds(device, resp.sddmm->run);
  }
  return resp;
}

}  // namespace magicube::serve
